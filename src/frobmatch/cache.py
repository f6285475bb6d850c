"""Trace cache files.

Format: a header line "#curve A=<A> B=<B>" followed by one "p<TAB>a_p" line
per prime, ascending.  A reader validates the header against the curve it
was asked for; any mismatch or corruption counts as a miss and triggers
recomputation, never silent reuse.
"""

from __future__ import annotations

import os
import uuid

from frobmatch.elliptic import CurveQ


def cache_path(cache_dir: str, curve: CurveQ) -> str:
    return os.path.join(cache_dir, f"traces_A{curve.A}_B{curve.B}.tsv")


def read_trace_cache(path: str, curve: CurveQ) -> dict[int, int]:
    """Cached {p: a_p}, or {} when the file is absent, corrupt, or for a
    different curve."""
    try:
        with open(path, encoding="ascii") as fh:
            header = fh.readline().rstrip("\n")
            if header != f"#curve A={curve.A} B={curve.B}":
                return {}
            out: dict[int, int] = {}
            prev = 0
            for line in fh:
                p_str, a_str = line.rstrip("\n").split("\t")
                p, a = int(p_str), int(a_str)
                if p <= prev or a * a > 4 * p:
                    return {}
                out[p] = a
                prev = p
            return out
    except (OSError, ValueError):
        return {}


def write_trace_cache(path: str, curve: CurveQ, traces: dict[int, int]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    # a name of its own per writer, so concurrent writers never share a
    # half-written file; the last os.replace wins whole
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="ascii") as fh:
            fh.write(f"#curve A={curve.A} B={curve.B}\n")
            for p in sorted(traces):
                fh.write(f"{p}\t{traces[p]}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
