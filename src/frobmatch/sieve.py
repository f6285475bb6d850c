"""Square-sieve estimators over the curve-pair multiset, the auxiliary prime
window, and the parameter choices and bound shapes used for comparison plots.

Version 1 of the sieve is an order-of-magnitude estimate (its hidden constant
is not computable), so its report is descriptive.  Version 2 is a genuine
inequality with explicit constants: exact_square_count <= bound_total is
asserted on every evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from frobmatch.arith import (
    check_odd_prime_pair,
    is_perfect_square,
    jacobi_symbol,
    log_integral,
    primes_in,
)
from frobmatch.frobenius import PairScan, chebotarev_empirical, pair_product
from frobmatch.gl2 import class_ratio_main_term
from frobmatch.charsum import triple_sum

SIEVE_CSV_COLUMNS = [
    "version",
    "z",
    "P",
    "size",
    "exact",
    "term_main",
    "term_char",
    "term_linear",
    "term_quadratic",
    "bound_total",
]


@dataclass(frozen=True)
class SievePrimeSet:
    """The auxiliary window: all primes q with z/2 < q <= z."""

    z: float
    primes: tuple[int, ...]

    @property
    def P(self) -> int:
        return len(self.primes)


@dataclass(frozen=True)
class Multiset:
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 1 for e in self.elements):
            raise ValueError("multiset elements must be positive integers")

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class SieveReport:
    version: int
    z: float
    P: int
    size: int
    exact_square_count: int
    term_main: float
    term_char: float
    term_linear: float
    term_quadratic: float
    bound_total: float

    def csv_row(self) -> list:
        return [
            self.version,
            repr(self.z),
            self.P,
            self.size,
            self.exact_square_count,
            repr(self.term_main),
            repr(self.term_char),
            repr(self.term_linear),
            repr(self.term_quadratic),
            repr(self.bound_total),
        ]


def build_prime_window(z: float) -> SievePrimeSet:
    if z < 3:
        raise ValueError(f"window (z/2, z] is empty for z={z}; need z >= 3")
    qs = primes_in(int(z // 2), int(z))
    qs = [q for q in qs if z / 2 < q <= z]
    return SievePrimeSet(z, tuple(qs))


def curve_pair_multiset(scan: PairScan, x: int) -> Multiset:
    """Elements (4p - a_p^2)(4p - b_p^2) over the scanned primes p <= x."""
    if x > scan.x:
        raise ValueError(f"the scan stops at x={scan.x}, below {x}")
    return Multiset(tuple(pair_product(r.p, r.a_p, r.b_p) for r in scan.records if r.p <= x))


def square_count_exact(a: Multiset) -> int:
    """Perfect squares in the multiset, counted with multiplicity."""
    return sum(1 for e in a.elements if is_perfect_square(e))


def _char_sums_over_pairs(a: Multiset, window: SievePrimeSet) -> list[int]:
    """inner sums sum_{n in A} (n/q1q2) over unordered window pairs."""
    out = []
    qs = window.primes
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            n = qs[i] * qs[j]
            out.append(sum(jacobi_symbol(e, n) for e in a.elements))
    return out


def sieve_bound_v1(a: Multiset, window: SievePrimeSet) -> SieveReport:
    """First sieve shape: #A/P plus the normalized double character sum.

    Descriptive only (the true statement hides a constant); requires every
    element to satisfy max(A) <= e^P.
    """
    p_count = window.P
    if p_count == 0:
        raise ValueError("empty prime window")
    if a.elements and p_count < 710 and max(a.elements) > math.exp(p_count):
        raise ValueError(
            f"max element {max(a.elements)} exceeds e^P with P={p_count}; enlarge z"
        )
    size = len(a)
    term_main = size / p_count
    # both orderings of each pair contribute the same |inner sum|
    term_char = 2.0 * sum(abs(s) for s in _char_sums_over_pairs(a, window)) / p_count**2
    return SieveReport(
        version=1,
        z=window.z,
        P=p_count,
        size=size,
        exact_square_count=square_count_exact(a),
        term_main=term_main,
        term_char=term_char,
        term_linear=0.0,
        term_quadratic=0.0,
        bound_total=term_main + term_char,
    )


def sieve_bound_v2(a: Multiset, window: SievePrimeSet) -> SieveReport:
    """Second sieve shape, a true inequality:

    S(A) <= #A/P + max_{q1 != q2} |sum (alpha/q1q2)|
          + (2/P) sum_alpha omega(alpha) + (1/P^2) sum_alpha omega(alpha)^2

    where omega(alpha) counts window primes dividing alpha.  The inequality
    is asserted on every call.
    """
    p_count = window.P
    if p_count == 0:
        raise ValueError("empty prime window")
    size = len(a)
    term_main = size / p_count
    sums = _char_sums_over_pairs(a, window)
    term_char = float(max((abs(s) for s in sums), default=0))
    omega = [sum(1 for q in window.primes if e % q == 0) for e in a.elements]
    term_linear = 2.0 * sum(omega) / p_count
    term_quadratic = sum(w * w for w in omega) / p_count**2
    total = term_main + term_char + term_linear + term_quadratic
    exact = square_count_exact(a)
    if exact > total:
        raise ArithmeticError(
            f"square-sieve inequality violated: {exact} squares > bound {total}"
        )
    return SieveReport(
        version=2,
        z=window.z,
        P=p_count,
        size=size,
        exact_square_count=exact,
        term_main=term_main,
        term_char=term_char,
        term_linear=term_linear,
        term_quadratic=term_quadratic,
        bound_total=total,
    )


def prime_char_sum(scan: PairScan, q1: int, q2: int) -> int:
    """sum over scanned p, p not in {q1, q2}, of ((4p-a_p^2)(4p-b_p^2)/q1q2)."""
    n = check_odd_prime_pair(q1, q2)
    return sum(
        jacobi_symbol(pair_product(r.p, r.a_p, r.b_p), n)
        for r in scan.records
        if r.p != q1 and r.p != q2
    )


def prime_char_sum_by_classes(scan: PairScan, q1: int, q2: int) -> int:
    """Same sum via the residue-class decomposition: the (d, s, t) histogram
    weighted by the symbol of (4d - s^2)(4d - t^2)."""
    table = chebotarev_empirical(scan, q1, q2)
    n = table.modulus
    total = 0
    for d in range(n):
        if math.gcd(d, n) != 1:
            continue
        for s in range(n):
            for t in range(n):
                c = table.counts[d][s][t]
                if c:
                    total += c * jacobi_symbol((4 * d - s * s) * (4 * d - t * t), n)
    return total


def choose_z_grh(x: float) -> float:
    """Window parameter for the conditional bound: x^(1/30) (log x)^(-1/15).

    Note this exceeds 3 (a usable window) only for astronomically large x;
    desk-scale experiments should use a fixed z instead.
    """
    if x < 100:
        raise ValueError(f"need x >= 100, got {x}")
    return x ** (1 / 30) * math.log(x) ** (-1 / 15)


def choose_z_uncond(x: float, c3: float = 1.0) -> float:
    """Window parameter for the unconditional bound:
    c3 (log x)^(1/42) (log log x)^(-1/21)."""
    if x < 100:
        raise ValueError(f"need x >= 100, got {x}")
    if c3 <= 0:
        raise ValueError(f"need c3 > 0, got {c3}")
    return c3 * math.log(x) ** (1 / 42) * math.log(math.log(x)) ** (-1 / 21)


def uncond_growth_condition(x: float, c2: float = 1.0, c3: float = 1.0) -> bool:
    """Companion constraint for the unconditional z: c2 z^42 (log z)^2 <= log x."""
    z = choose_z_uncond(x, c3)
    return c2 * z**42 * math.log(z) ** 2 <= math.log(x)


def main_term_assembly(q1: int, q2: int, x: float) -> float:
    """li(x) times the exact class-ratio coefficient times the triple sum."""
    coeff = class_ratio_main_term(q1, q2)
    return log_integral(x) * float(coeff) * triple_sum(q1, q2)


def check_bound_x(x: float) -> None:
    """Raise ValueError unless `theorem_bound_curves` accepts x (x >= 100)."""
    if x < 100:
        raise ValueError(f"need x >= 100, got {x}")


def theorem_bound_curves(x: float, which: str) -> float:
    """Asymptotic bound shapes (unit constant) for plotting:

    grh    -> x^(29/30) (log x)^(1/15)
    uncond -> x (log log x)^(22/21) / (log x)^(43/42)
    """
    check_bound_x(x)
    if which == "grh":
        return x ** (29 / 30) * math.log(x) ** (1 / 15)
    if which == "uncond":
        return x * math.log(math.log(x)) ** (22 / 21) / math.log(x) ** (43 / 42)
    raise ValueError(f"unknown bound shape {which!r} (use 'grh' or 'uncond')")
