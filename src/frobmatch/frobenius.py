"""Frobenius-field extraction and the prime-counting functions built on it.

The field attached to a curve at a good prime p is Q(sqrt(a_p^2 - 4p)); since
4p - a_p^2 > 0 it is imaginary quadratic and is identified here by the
squarefree part D of 4p - a_p^2, i.e. the field Q(sqrt(-D)).  Two curves
match at p exactly when their D's agree, equivalently when
(4p - a_p^2)(4p - b_p^2) is a perfect square.

Counters exclude p = 2, 3 and the discriminant-surrogate bad primes of the
curves involved (`elliptic.good_mask`); the excluded set is returned
alongside every scan rather than silently dropped.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from frobmatch.arith import (
    check_odd_prime_pair,
    is_perfect_square,
    log_integral,
    primes_in,
    residue_column,
    squarefree_part,
)
from frobmatch.elliptic import TRACE_LIMIT, CurveQ, ap_bsgs, ap_stream, good_mask
from frobmatch.gl2 import count_det_trace_formula, order_H_formula

# A trace engine: (curves, primes) -> the (len(curves), len(primes)) table
# of a_p, one row per curve, as `ap_stream` returns it.
TraceEngine = Callable[[Sequence[CurveQ], list[int]], np.ndarray]

MATCH_CSV_COLUMNS = ["p", "a_p", "b_p", "D1", "D2", "matched"]
# Rows per write: one write call per block, never the whole file as one string.
_MATCH_CSV_BLOCK = 4096
# The last cell of a match.csv row, by `not matched`, padded to one width,
# and which of its bytes are written.
_FLAG_BYTES = np.frombuffer(b"true\r\n\0false\r\n", np.uint8).reshape(2, 7)
_FLAG_KEEP = _FLAG_BYTES != 0


@dataclass(frozen=True)
class FrobeniusFieldTag:
    """The imaginary quadratic field Q(sqrt(-D)), D squarefree positive."""

    D: int

    def __post_init__(self) -> None:
        if self.D < 1 or squarefree_part(self.D) != self.D:
            raise ValueError(f"field tag needs squarefree D >= 1, got {self.D}")


@dataclass(frozen=True, eq=False)
class PairScan:
    """The trace table of a curve pair as int64 columns, one entry per common
    good prime p <= x in ascending order, plus the skipped primes.  Every pair
    count reads it."""

    x: int
    p: np.ndarray
    a_p: np.ndarray
    b_p: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    excluded: tuple[int, ...]

    @property
    def matched(self) -> np.ndarray:
        return self.D1 == self.D2

    @property
    def match_count(self) -> int:
        return int(np.count_nonzero(self.matched))


def good_primes(x: int, *curves: CurveQ) -> tuple[list[int], list[int]]:
    """Primes p <= x split into (good for every curve, excluded); x >= 5.
    p = 2, 3 are excluded, and so is every p that `elliptic.good_mask`
    finds bad for some curve."""
    if x < 5:
        raise ValueError(f"need x >= 5, got {x}")
    col = np.array(primes_in(0, x), dtype=np.int64)
    good = (col >= 5) & good_mask(curves, col).all(axis=0)
    return col[good].tolist(), col[~good].tolist()


def frobenius_field(curve: CurveQ, p: int, a_p: int | None = None) -> FrobeniusFieldTag:
    """Field tag at a good prime p > 3; a_p may be supplied to skip recompute."""
    if a_p is None:
        a_p = ap_bsgs(curve, p)
    return FrobeniusFieldTag(squarefree_part(4 * p - a_p * a_p))


def pair_product(p: int, a: int, b: int) -> int:
    """(4p - a^2)(4p - b^2), the square-sieve element of the prime p."""
    return (4 * p - a * a) * (4 * p - b * b)


def product_is_square_check(p: int, a: int, b: int) -> bool:
    """Whether (4p - a^2)(4p - b^2) is a perfect square.

    Equivalent to equality of the squarefree parts of the two factors.
    """
    if a * a >= 4 * p or b * b >= 4 * p:
        raise ValueError(f"traces violate the Hasse bound at p={p}: a={a}, b={b}")
    return is_perfect_square(pair_product(p, a, b))


def _trace_table(table: np.ndarray | list[list[int]], n_curves: int, n_primes: int) -> np.ndarray:
    """An engine's trace table as int64; ValueError for a shape other than
    (n_curves, n_primes), or for a trace of size 2^31 or more, which breaks
    the Hasse bound at every p < 2^60."""
    t = np.asarray(table)  # uint64 or object if a trace is beyond int64
    if t.shape != (n_curves, n_primes):
        raise ValueError(f"trace engine returned shape {t.shape}, expected {(n_curves, n_primes)}")
    if t.size and not -TRACE_LIMIT < t.min() <= t.max() < TRACE_LIMIT:
        raise ValueError("traces violate the Hasse bound: a trace of size 2^31 or more")
    return t.astype(np.int64, copy=False)


def _engine_traces(
    engine: TraceEngine, curves: Sequence[CurveQ], good: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, traces, norms) from one `engine` call on the good primes: p as
    int64, the checked trace table, and its 4p - a_p^2, which the Hasse bound
    makes positive (ValueError at the first prime where it is not)."""
    p = np.array(good, dtype=np.int64)
    traces = _trace_table(engine(curves, good), len(curves), len(good))
    norms = 4 * p - traces * traces
    outside = (norms < 1).any(axis=0)
    if outside.any():
        i = int(np.argmax(outside))
        found = ", ".join(f"{c}={t}" for c, t in zip("ab", traces[:, i].tolist()))
        raise ValueError(f"traces violate the Hasse bound at p={good[i]}: {found}")
    return p, traces, norms


def scan_pair(e1: CurveQ, e2: CurveQ, x: int, engine: TraceEngine = ap_stream) -> PairScan:
    """The pair's columns over the common good primes p <= x, from one
    `engine` call on both curves."""
    good, skipped = good_primes(x, e1, e2)
    p, (a, b), (n1, n2) = _engine_traces(engine, (e1, e2), good)
    return PairScan(x, p, a, b, squarefree_part(n1), squarefree_part(n2), tuple(skipped))


def count_fixed_trace(e: CurveQ, t: int, x: int, engine: TraceEngine = ap_stream) -> int:
    """#{p <= x good : a_p = t}, traces from one `engine` call."""
    good, _ = good_primes(x, e)
    _, (a,), _ = _engine_traces(engine, (e,), good)
    return int(np.count_nonzero(a == t))


def count_fixed_field(e: CurveQ, d: int, x: int, engine: TraceEngine = ap_stream) -> int:
    """#{p <= x good : squarefree part of 4p - a_p^2 equals d}, traces from
    one `engine` call."""
    FrobeniusFieldTag(d)  # ValueError unless d is squarefree and >= 1
    good, _ = good_primes(x, e)
    _, _, (n,) = _engine_traces(engine, (e,), good)
    return int(np.count_nonzero(squarefree_part(n) == d))


def count_joint_traces(scan: PairScan, t1: int, t2: int) -> int:
    """#{p <= x good for both : a_p = t1 and b_p = t2}."""
    return int(np.count_nonzero((scan.a_p == t1) & (scan.b_p == t2)))


# ---------------------------------------------------------------------------
# Empirical residue-class frequencies mod q1*q2.


def _units(n: int) -> list[int]:
    return [d for d in range(n) if math.gcd(d, n) == 1]


@dataclass
class CheboTable:
    """counts[d][s][t] = #{p <= x good : p=d, a_p=s, b_p=t mod q1*q2}."""

    q1: int
    q2: int
    x: int
    counts: list[list[list[int]]]

    @property
    def modulus(self) -> int:
        return self.q1 * self.q2

    def cells(self) -> Iterator[tuple[int, int, int, int]]:
        """(d, s, t, count) for unit d and all s, t, in lexicographic order."""
        n = self.modulus
        for d, s, t in product(_units(n), range(n), range(n)):
            yield d, s, t, self.counts[d][s][t]

    def predictions(self) -> list[float]:
        """The class-ratio prediction (#C/#H) li(x) of each cell, in `cells`
        order: `gl2.class_ratio` with each matrix count computed once."""
        q1, q2, n = self.q1, self.q2, self.modulus
        ks = []  # #C = count(d, s) * count(d, t) of each cell
        for d in _units(n):
            count = [count_det_trace_formula(q1, q2, d, s) for s in range(n)]
            ks.extend(cs * ct for cs in count for ct in count)
        # int / int is correctly rounded: the float of class_ratio's Fraction,
        # evaluated once per distinct #C (24 of them at q1, q2 = 3, 5)
        order, li_x = order_H_formula(q1, q2), log_integral(self.x)
        pred = {k: k / order * li_x for k in set(ks)}
        return [pred[k] for k in ks]


def residue_modulus(q1: int, q2: int) -> int:
    """q1*q2 for distinct odd primes whose residue table fits in memory."""
    if abs(q1 * q2) ** 3 > 2_000_000:
        raise ValueError(f"residue table for modulus {q1 * q2} would not fit memory")
    return check_odd_prime_pair(q1, q2)


def chebotarev_empirical(scan: PairScan, q1: int, q2: int) -> CheboTable:
    """Histogram the scanned primes into (p, a_p, b_p) residue cells."""
    n = residue_modulus(q1, q2)
    cells = residue_column(scan.p, n) * n + residue_column(scan.a_p, n)
    cells *= n
    cells += residue_column(scan.b_p, n)
    counts = np.bincount(cells, minlength=n**3).reshape(n, n, n)
    return CheboTable(q1, q2, scan.x, counts.tolist())


def write_csv(path, header: list[str], rows: Iterable) -> None:
    """A header line and then `rows`, creating the file's directory if needed."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _int_cells(v: np.ndarray, m: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Fill `chars`, one row per byte position and one column per value, with
    each int64 of `v` as the text `str` gives it and a comma: a sign row, the
    digits of m = |v| right-aligned and the comma; `keep` marks the bytes
    that are written (no '+', no leading zeros)."""
    width = len(chars) - 2
    chars[0], keep[0] = ord("-"), v < 0
    chars[-1], keep[-1] = ord(","), True
    for j in range(width, 0, -1):
        keep[j] = m != 0
        q = m // 10
        chars[j] = m - 10 * q
        chars[j] += ord("0")
        m = q
    keep[width] = True  # zero is the one digit 0


def _match_rows(columns: list[np.ndarray], unmatched: np.ndarray) -> bytes:
    """The bytes of a block of match.csv rows, from one byte table with a row
    per byte position of a line: the five integer cells, then the last cell
    by `not matched`, padded to one width."""
    mags = [np.abs(v).astype(np.uint64) for v in columns]  # exact for -2^63 too
    widths = [len(str(int(m.max()))) + 2 for m in mags]
    chars = np.empty((sum(widths) + _FLAG_BYTES.shape[1], len(unmatched)), np.uint8)
    keep = np.empty(chars.shape, bool)
    top = 0
    for v, m, w in zip(columns, mags, widths):
        _int_cells(v, m, chars[top : top + w], keep[top : top + w])
        top += w
    chars[top:] = _FLAG_BYTES[unmatched].T
    keep[top:] = _FLAG_KEEP[unmatched].T
    return chars.T[keep.T].tobytes()


def write_match_csv(scan: PairScan, path) -> None:
    """Deterministic CSV, one row per good prime in ascending order: the
    bytes `write_csv` would write, each block of rows formatted by numpy and
    written in one call."""
    columns = (scan.p, scan.a_p, scan.b_p, scan.D1, scan.D2)
    unmatched = (~scan.matched).view(np.uint8)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(",".join(MATCH_CSV_COLUMNS).encode("ascii") + b"\r\n")
        for start in range(0, len(scan.p), _MATCH_CSV_BLOCK):
            rows = slice(start, start + _MATCH_CSV_BLOCK)
            fh.write(_match_rows([c[rows] for c in columns], unmatched[rows]))
