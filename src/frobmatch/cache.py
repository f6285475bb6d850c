"""Trace cache files.

Format (version 2): one binary file per curve, `traces_A<A>_B<B>.i64`.  It
starts with the ASCII line "#frobmatch-traces 2 A=<A> B=<B> n=<n>\\n" and is
followed by exactly 16*n bytes: n little-endian int64 (p, a_p) pairs,
ascending in p.  A reader validates the header against the curve and format
version it was asked for, and the body as columns: a file for another curve
or version, a body of the wrong length, primes that are not strictly
ascending in [5, 2^61), or a trace outside the Hasse bound counts as a miss
and triggers recomputation, never silent reuse.  The plain-text `.tsv` files
of version 1 have another name; they are ignored and left where they are.

Traces pass through this module as a pair of int64 columns `(p, a_p)`, the
file's body split in two; a miss is a pair of empty columns.
"""

from __future__ import annotations

import os
import uuid

import numpy as np

from frobmatch.elliptic import TRACE_LIMIT, CurveQ

VERSION = 2

# A cached prime stays below 2^61, so 4p fits int64; a trace of size below
# TRACE_LIMIT = 2^31 has a square below 2^62, so a^2 <= 4p is exact in int64.
_P_LIMIT = 1 << 61
_PAIR_BYTES = 16


def cache_path(cache_dir: str, curve: CurveQ) -> str:
    return os.path.join(cache_dir, f"traces_A{curve.A}_B{curve.B}.i64")


def _header(curve: CurveQ, n: int) -> bytes:
    return f"#frobmatch-traces {VERSION} A={curve.A} B={curve.B} n={n}\n".encode("ascii")


def _miss() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, np.int64), np.empty(0, np.int64)


def read_trace_cache(path: str, curve: CurveQ) -> tuple[np.ndarray, np.ndarray]:
    """The cached (p, a_p) int64 columns, or a pair of empty columns when the
    file is absent, corrupt, of another format version, or for a different
    curve."""
    try:
        with open(path, "rb") as fh:
            # n has at most 20 digits, so a longer first line is no header
            head = fh.readline(len(_header(curve, 0)) + 20)
            n_text = head.rpartition(b"n=")[2].rstrip(b"\n")
            if not n_text.isdigit() or head != _header(curve, int(n_text)):
                return _miss()
            size = _PAIR_BYTES * int(n_text)
            # the length is checked before reading, so a corrupt n never
            # sizes a buffer
            if os.fstat(fh.fileno()).st_size - len(head) != size:
                return _miss()
            body = fh.read(size)
    except (OSError, ValueError):
        return _miss()
    if len(body) != size:
        return _miss()
    # one contiguous, writable native column each
    p, a = np.frombuffer(body, dtype="<i8").reshape(-1, 2).T.astype(np.int64, order="C")
    if p.size and not (
        5 <= p[0]
        and p[-1] < _P_LIMIT
        and bool(np.all(p[1:] > p[:-1]))
        and -TRACE_LIMIT < a.min()
        and a.max() < TRACE_LIMIT
        and bool(np.all(a * a <= 4 * p))
    ):
        return _miss()
    return p, a


def write_trace_cache(path: str, curve: CurveQ, p: np.ndarray, a: np.ndarray) -> None:
    """Write the (p, a_p) columns, p ascending, as the curve's cache file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    pairs = np.empty((len(p), 2), dtype="<i8")
    pairs[:, 0] = p
    pairs[:, 1] = a
    # a name of its own per writer, so concurrent writers never share a
    # half-written file; the last os.replace wins whole
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(_header(curve, len(p)))
            fh.write(pairs.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
