"""Frobenius-field extraction and the prime-counting functions built on it.

The field attached to a curve at a good prime p is Q(sqrt(a_p^2 - 4p)); since
4p - a_p^2 > 0 it is imaginary quadratic and is identified here by the
squarefree part D of 4p - a_p^2, i.e. the field Q(sqrt(-D)).  Two curves
match at p exactly when their D's agree, equivalently when
(4p - a_p^2)(4p - b_p^2) is a perfect square.

Counters exclude p = 2, 3 and the discriminant-surrogate bad primes of the
curves involved; the excluded set is returned alongside every scan rather
than silently dropped.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator

import numpy as np

from frobmatch.arith import (
    check_odd_prime_pair,
    is_perfect_square,
    log_integral,
    primes_in,
    squarefree_part,
)
from frobmatch.elliptic import TRACE_LIMIT, CurveQ, ap_bsgs, ap_lanes
from frobmatch.gl2 import count_det_trace_formula, order_H_formula

# A batch trace engine: (curve, primes) -> [a_p for p in primes].
TraceEngine = Callable[[CurveQ, list[int]], list[int]]

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
    """Primes p <= x split into (good for every curve, excluded); x >= 5."""
    if x < 5:
        raise ValueError(f"need x >= 5, got {x}")
    col = np.array(primes_in(0, x), dtype=np.int64)
    bad = col < 5
    for c in curves:
        m = 6 * c.discriminant
        if abs(m) < 1 << 63:
            bad |= np.remainder(np.int64(m), col) == 0
        else:  # Python-int remainders beyond int64
            bad |= np.remainder(m, col.astype(object)) == 0
    return col[~bad].tolist(), col[bad].tolist()


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


def _trace_column(traces: list[int] | np.ndarray) -> np.ndarray:
    """An engine's traces as int64; ValueError for a trace of size 2^31 or
    more, which breaks the Hasse bound at every p < 2^60."""
    col = np.asarray(traces)  # uint64 or object if a trace is beyond int64
    if col.size and not -TRACE_LIMIT < col.min() <= col.max() < TRACE_LIMIT:
        raise ValueError("traces violate the Hasse bound: a trace of size 2^31 or more")
    return col.astype(np.int64, copy=False)


def scan_pair(e1: CurveQ, e2: CurveQ, x: int, engine: TraceEngine = ap_lanes) -> PairScan:
    """The pair's columns over the common good primes p <= x; `engine` is
    called once per curve on those primes."""
    good, skipped = good_primes(x, e1, e2)
    p = np.array(good, dtype=np.int64)
    a, b = _trace_column(engine(e1, good)), _trace_column(engine(e2, good))
    n1, n2 = 4 * p - a * a, 4 * p - b * b
    outside = (n1 < 1) | (n2 < 1)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"traces violate the Hasse bound at p={good[i]}: a={a[i]}, b={b[i]}")
    d1 = squarefree_part(n1)
    del n1  # frees its block before the second pass allocates
    return PairScan(x, p, a, b, d1, squarefree_part(n2), tuple(skipped))


def count_fixed_trace(e: CurveQ, t: int, x: int, engine: TraceEngine = ap_lanes) -> int:
    """#{p <= x good : a_p = t}, traces from one `engine` call."""
    good, _ = good_primes(x, e)
    return engine(e, good).count(t)


def count_fixed_field(e: CurveQ, d: int, x: int, engine: TraceEngine = ap_lanes) -> int:
    """#{p <= x good : squarefree part of 4p - a_p^2 equals d}, traces from
    one `engine` call."""
    if d < 1 or squarefree_part(d) != d:
        raise ValueError(f"field selector must be squarefree >= 1, got {d}")
    good, _ = good_primes(x, e)
    p = np.array(good, dtype=np.int64)
    a = _trace_column(engine(e, good))
    return int(np.count_nonzero(squarefree_part(4 * p - a * a) == d))


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
    n_good: int

    @property
    def modulus(self) -> int:
        return self.q1 * self.q2

    def column_total(self, d: int) -> int:
        return sum(map(sum, self.counts[d % self.modulus]))

    def cells(self) -> Iterator[tuple[int, int, int, int]]:
        """(d, s, t, count) for unit d and all s, t, in lexicographic order."""
        n = self.modulus
        for d, s, t in product(_units(n), range(n), range(n)):
            yield d, s, t, self.counts[d][s][t]

    def predictions(self) -> list[float]:
        """The class-ratio prediction (#C/#H) li(x) of each cell, in `cells`
        order: `gl2.class_ratio` with each matrix count computed once."""
        li_x = log_integral(self.x)
        q1, q2, n = self.q1, self.q2, self.modulus
        order = order_H_formula(q1, q2)
        count = {
            (d, s): count_det_trace_formula(q1, q2, d, s)
            for d, s in product(_units(n), range(n))
        }
        # int / int is correctly rounded: the float of class_ratio's Fraction
        return [
            count[d, s] * count[d, t] / order * li_x
            for d, s, t, _ in self.cells()
        ]


def residue_modulus(q1: int, q2: int) -> int:
    """q1*q2 for distinct odd primes whose residue table fits in memory."""
    if abs(q1 * q2) ** 3 > 2_000_000:
        raise ValueError(f"residue table for modulus {q1 * q2} would not fit memory")
    return check_odd_prime_pair(q1, q2)


def chebotarev_empirical(scan: PairScan, q1: int, q2: int) -> CheboTable:
    """Histogram the scanned primes into (p, a_p, b_p) residue cells."""
    n = residue_modulus(q1, q2)
    cells = (scan.p % n * n + scan.a_p % n) * n + scan.b_p % n
    counts = np.bincount(cells, minlength=n**3).reshape(n, n, n)
    return CheboTable(q1, q2, scan.x, counts.tolist(), len(scan.p))


def chebotarev_deviation(table: CheboTable) -> tuple[float, tuple[int, int, int]]:
    """Max |empirical cell - predicted class share * li(x)| and its first cell.

    The prediction is the matrix-pair class ratio from `frobmatch.gl2`; the
    deviation is reported, never asserted against a bound.
    """
    pairs = zip(table.cells(), table.predictions())
    worst, (d, s, t, _) = max(((abs(c[3] - pred), c) for c, pred in pairs), key=lambda w: w[0])
    return worst, (d, s, t)


def write_csv(path, header: list[str], rows: Iterable) -> None:
    """A header line and then `rows`, creating the file's directory if needed."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _int_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each int64 of `v` as the text `str` gives it and a comma: a (len(v),
    width) byte table of a sign cell, the digits right-aligned and the comma,
    and the mask of the bytes that are written (no '+', no leading zeros)."""
    m = np.abs(v).astype(np.uint64)  # exact for every int64, -2^63 too
    width = len(str(int(m.max())))
    chars = np.empty((len(v), width + 2), np.uint8)
    keep = np.empty(chars.shape, bool)
    chars[:, 0], keep[:, 0] = ord("-"), v < 0
    chars[:, -1], keep[:, -1] = ord(","), True
    for j in range(width, 0, -1):
        keep[:, j] = m != 0
        chars[:, j] = m % 10 + ord("0")
        m //= 10
    keep[:, width] = True  # zero is the one digit 0
    return chars, keep


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
            cells = [_int_cells(c[rows]) for c in columns]
            cells.append((_FLAG_BYTES[unmatched[rows]], _FLAG_KEEP[unmatched[rows]]))
            chars, keep = (np.hstack(t) for t in zip(*cells))
            fh.write(chars[keep].tobytes())
