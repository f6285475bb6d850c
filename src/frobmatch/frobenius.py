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
from dataclasses import dataclass
from itertools import filterfalse
from typing import Callable, Iterable

from frobmatch.arith import (
    check_odd_prime_pair,
    is_perfect_square,
    log_integral,
    primes_in,
    squarefree_part,
)
from frobmatch.elliptic import CurveQ, ap_bsgs

TraceFn = Callable[[CurveQ, int], int]

MATCH_CSV_COLUMNS = ["p", "a_p", "b_p", "D1", "D2", "matched"]


@dataclass(frozen=True)
class FrobeniusFieldTag:
    """The imaginary quadratic field Q(sqrt(-D)), D squarefree positive."""

    D: int

    def __post_init__(self) -> None:
        if self.D < 1 or squarefree_part(self.D) != self.D:
            raise ValueError(f"field tag needs squarefree D >= 1, got {self.D}")


@dataclass(frozen=True)
class MatchRecord:
    p: int
    a_p: int
    b_p: int
    D1: int
    D2: int
    matched: bool


@dataclass(frozen=True)
class PairScan:
    """The trace table of a curve pair: one MatchRecord per common good prime
    p <= x, ascending, plus the skipped primes.  Every pair count reads it."""

    x: int
    records: tuple[MatchRecord, ...]
    excluded: tuple[int, ...]

    @property
    def match_count(self) -> int:
        return sum(1 for r in self.records if r.matched)


def good_primes(x: int, *curves: CurveQ) -> tuple[list[int], list[int]]:
    """Primes p <= x split into (good for every curve, excluded)."""
    primes = primes_in(0, x)
    bad: set[int] = {2, 3}
    for c in curves:
        bad.update(filterfalse(c.is_good, primes))
    good, skipped = [], []
    for p in primes:
        (skipped if p in bad else good).append(p)
    return good, skipped


def _field_d(p: int, t: int) -> int:
    # squarefree part D of 4p - t^2, naming the field Q(sqrt(-D))
    return squarefree_part(4 * p - t * t)


def frobenius_field(curve: CurveQ, p: int, a_p: int | None = None) -> FrobeniusFieldTag:
    """Field tag at a good prime p > 3; a_p may be supplied to skip recompute."""
    if a_p is None:
        a_p = ap_bsgs(curve, p)
    return FrobeniusFieldTag(_field_d(p, a_p))


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


def scan_pair(e1: CurveQ, e2: CurveQ, x: int, trace_fn: TraceFn = ap_bsgs) -> PairScan:
    """One MatchRecord per common good prime p <= x, ascending; the only
    place a pair's traces are looked up prime by prime."""
    if x < 5:
        raise ValueError(f"need x >= 5, got {x}")
    good, skipped = good_primes(x, e1, e2)
    records = []
    for p in good:
        a, b = trace_fn(e1, p), trace_fn(e2, p)
        records.append(
            MatchRecord(p, a, b, _field_d(p, a), _field_d(p, b), product_is_square_check(p, a, b))
        )
    return PairScan(x, tuple(records), tuple(skipped))


def count_fixed_trace(e: CurveQ, t: int, x: int, trace_fn: TraceFn = ap_bsgs) -> int:
    """#{p <= x good : a_p = t}."""
    if x < 5:
        raise ValueError(f"need x >= 5, got {x}")
    good, _ = good_primes(x, e)
    return sum(1 for p in good if trace_fn(e, p) == t)


def count_fixed_field(e: CurveQ, d: int, x: int, trace_fn: TraceFn = ap_bsgs) -> int:
    """#{p <= x good : squarefree part of 4p - a_p^2 equals d}."""
    if d < 1 or squarefree_part(d) != d:
        raise ValueError(f"field selector must be squarefree >= 1, got {d}")
    if x < 5:
        raise ValueError(f"need x >= 5, got {x}")
    good, _ = good_primes(x, e)
    return sum(1 for p in good if _field_d(p, trace_fn(e, p)) == d)


def count_joint_traces(scan: PairScan, t1: int, t2: int) -> int:
    """#{p <= x good for both : a_p = t1 and b_p = t2}."""
    return sum(1 for r in scan.records if r.a_p == t1 and r.b_p == t2)


# ---------------------------------------------------------------------------
# Empirical residue-class frequencies mod q1*q2.


@dataclass
class CheboTable:
    """counts[d][s][t] = #{p <= x good : p=d, a_p=s, b_p=t mod q1*q2}."""

    q1: int
    q2: int
    x: int
    counts: list[list[list[int]]]
    n_good: int
    excluded: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.q1 * self.q2

    def cell(self, d: int, s: int, t: int) -> int:
        n = self.modulus
        return self.counts[d % n][s % n][t % n]

    def column_total(self, d: int) -> int:
        n = self.modulus
        return sum(self.counts[d % n][s][t] for s in range(n) for t in range(n))


def residue_modulus(q1: int, q2: int) -> int:
    """q1*q2 for distinct odd primes whose residue table fits in memory."""
    if abs(q1 * q2) ** 3 > 2_000_000:
        raise ValueError(f"residue table for modulus {q1 * q2} would not fit memory")
    return check_odd_prime_pair(q1, q2)


def chebotarev_empirical(scan: PairScan, q1: int, q2: int) -> CheboTable:
    """Histogram the scanned primes into (p, a_p, b_p) residue cells."""
    n = residue_modulus(q1, q2)
    counts = [[[0] * n for _ in range(n)] for _ in range(n)]
    for r in scan.records:
        counts[r.p % n][r.a_p % n][r.b_p % n] += 1
    return CheboTable(q1, q2, scan.x, counts, len(scan.records), scan.excluded)


def chebotarev_deviation(table: CheboTable) -> tuple[float, tuple[int, int, int]]:
    """Max |empirical cell - predicted class share * li(x)| and its cell.

    The prediction is the matrix-pair class ratio from `frobmatch.gl2`; the
    deviation is reported, never asserted against a bound.
    """
    from frobmatch.gl2 import class_ratio

    n = table.modulus
    li_x = log_integral(table.x)
    worst, worst_cell = -1.0, (0, 0, 0)
    for d in range(n):
        if math.gcd(d, n) != 1:
            continue
        for s in range(n):
            for t in range(n):
                predicted = float(class_ratio(table.q1, table.q2, d, s, t)) * li_x
                dev = abs(table.counts[d][s][t] - predicted)
                if dev > worst:
                    worst, worst_cell = dev, (d, s, t)
    return worst, worst_cell


def write_match_csv(records: Iterable[MatchRecord], path) -> None:
    """Deterministic CSV, one row per good prime in ascending order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(MATCH_CSV_COLUMNS)
        for r in records:
            w.writerow([r.p, r.a_p, r.b_p, r.D1, r.D2, "true" if r.matched else "false"])
