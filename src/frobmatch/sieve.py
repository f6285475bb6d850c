"""Square-sieve estimators over the curve-pair multiset, the auxiliary prime
window, and the parameter choices and bound shapes used for comparison plots.

Version 1 of the sieve is an order-of-magnitude estimate (its hidden constant
is not computable), so its report is descriptive.  Version 2 is a genuine
inequality with explicit constants: exact_square_count <= bound_total is
asserted on every evaluation.

Both shapes read their terms from one Legendre matrix L[i, k] = (alpha_k/q_i)
over the window primes q_i: the pair sums sum_alpha (alpha/q_i q_j) are the
entries of L L^T above its diagonal, and omega(alpha_k) is the number of
zeros in column k.  `_char_sums_over_pairs`, a jacobi_symbol call per pair
and element, is the brute-force twin of the pair sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from frobmatch.arith import (
    COLUMN_LIMIT,
    check_odd_prime_pair,
    is_perfect_square,
    isqrt_column,
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
    """The auxiliary window: all odd primes q with z/2 < q <= z (odd, so each
    pair product q1q2 is an odd modulus; 3 <= z < 4 gives the window {3})."""

    z: float
    primes: tuple[int, ...]

    @property
    def P(self) -> int:
        return len(self.primes)


@dataclass(frozen=True, eq=False)
class Multiset:
    """The sieve's multiset A as one 1-D column: int64 when every element is
    below 2^63, an object array of Python ints otherwise.  An int64 array is
    used as it is."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        col = self.elements
        if not (isinstance(col, np.ndarray) and col.dtype == np.int64):
            # exact Python ints first: np.asarray alone would store values in
            # [2^63, 2^64) as uint64
            col = np.asarray(col, dtype=object)
            if col.max(initial=0) < 1 << 63:
                col = col.astype(np.int64)
            object.__setattr__(self, "elements", col)
        if col.ndim != 1 or col.min(initial=1) < 1:
            raise ValueError("multiset elements must be a column of positive integers")

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


def build_prime_window(z: float) -> SievePrimeSet:
    if z < 3:
        raise ValueError(f"window (z/2, z] is empty for z={z}; need z >= 3")
    # an integer q > floor(z/2) exceeds z/2; the lower end 2 drops the even prime
    return SievePrimeSet(z, tuple(primes_in(max(int(z // 2), 2), int(z))))


def curve_pair_multiset(scan: PairScan, x: int) -> Multiset:
    """Elements (4p - a_p^2)(4p - b_p^2) over the scanned primes p <= x.

    Each factor lies in [1, 4x], so the products stay in int64 while
    16x^2 < 2^63 (x <= 7.59e8); above that they are multiplied as Python ints.
    """
    if x > scan.x:
        raise ValueError(f"the scan stops at x={scan.x}, below {x}")
    k = int(np.searchsorted(scan.p, x, side="right"))
    p, a, b = scan.p[:k], scan.a_p[:k], scan.b_p[:k]
    n1, n2 = 4 * p - a * a, 4 * p - b * b
    if 16 * int(x) ** 2 < 1 << 63:  # int(x): a numpy x would wrap
        return Multiset(n1 * n2)
    return Multiset(n1.astype(object) * n2.astype(object))


def square_count_exact(a: Multiset) -> int:
    """Perfect squares in the multiset, counted with multiplicity: one exact
    int64 root per element below COLUMN_LIMIT, `is_perfect_square` above."""
    alphas = a.elements
    if alphas.max(initial=0) < COLUMN_LIMIT:
        return int(np.count_nonzero(isqrt_column(alphas) ** 2 == alphas))
    return sum(1 for e in alphas.tolist() if is_perfect_square(e))


def _char_sums_over_pairs(a: Multiset, window: SievePrimeSet) -> list[int]:
    """inner sums sum_{n in A} (n/q1q2) over unordered window pairs."""
    out = []
    qs, elements = window.primes, a.elements.tolist()
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            n = qs[i] * qs[j]
            out.append(sum(jacobi_symbol(e, n) for e in elements))
    return out


# Columns of L per Gram block.  The Gram product runs in float32 (BLAS), whose
# integer sums are exact below 2^24 in magnitude; an entry of one block's
# product is a sum of at most _GRAM_BLOCK terms in {-1, 0, 1}, and the blocks
# are summed in int64.  The block also bounds the matrix to P * _GRAM_BLOCK.
_GRAM_BLOCK = 1 << 13
assert _GRAM_BLOCK < 1 << 24


def _legendre_terms(a: Multiset, window: SievePrimeSet) -> tuple[list[int], np.ndarray]:
    """(pair sums, omega): sum_alpha (alpha/q1q2) over unordered window pairs,
    in the order of `_char_sums_over_pairs`, and omega(alpha) per element,
    both from the Legendre matrix L[i, k] = (alpha_k/q_i)."""
    qs, alphas = window.primes, a.elements
    tables = []  # chi[r] = (r/q) for r in [0, q)
    for q in qs:
        chi = np.full(q, -1, np.int8)
        chi[np.arange(1, q) ** 2 % q] = 1
        chi[0] = 0
        tables.append(chi)
    gram = np.zeros((len(qs), len(qs)), np.int64)
    omega = np.zeros(len(alphas), np.int64)
    for lo in range(0, len(alphas), _GRAM_BLOCK):
        block = alphas[lo : lo + _GRAM_BLOCK]
        L = np.stack([chi[(block % q).astype(np.intp)] for q, chi in zip(qs, tables)])
        Lf = L.astype(np.float32)
        gram += (Lf @ Lf.T).astype(np.int64)
        omega[lo : lo + len(block)] = np.count_nonzero(L == 0, axis=0)
    return gram[np.triu_indices(len(qs), 1)].tolist(), omega


def _report(
    version: int,
    a: Multiset,
    window: SievePrimeSet,
    term_char: float,
    term_linear: float = 0.0,
    term_quadratic: float = 0.0,
) -> SieveReport:
    """The report of either sieve shape; version 1 has no omega terms, and
    bound_total is the sum of the four terms."""
    term_main = len(a) / window.P
    total = term_main + term_char + term_linear + term_quadratic
    return SieveReport(
        version, window.z, window.P, len(a), square_count_exact(a),
        term_main, term_char, term_linear, term_quadratic, total,
    )


def sieve_bound_v1(a: Multiset, window: SievePrimeSet) -> SieveReport:
    """First sieve shape: #A/P plus the normalized double character sum.

    Descriptive only (the true statement hides a constant); requires every
    element to satisfy max(A) <= e^P.
    """
    p_count = window.P
    if p_count == 0:
        raise ValueError("empty prime window")
    # a Python int: an int64 compared with the float e^P would be rounded
    top = int(a.elements.max(initial=0))
    if p_count < 710 and top > math.exp(p_count):
        raise ValueError(f"max element {top} exceeds e^P with P={p_count}; enlarge z")
    # both orderings of each pair contribute the same |inner sum|
    sums, _ = _legendre_terms(a, window)
    return _report(1, a, window, 2.0 * sum(abs(s) for s in sums) / p_count**2)


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
    sums, omega = _legendre_terms(a, window)
    rep = _report(
        2,
        a,
        window,
        term_char=float(max((abs(s) for s in sums), default=0)),
        term_linear=2.0 * int(omega.sum()) / p_count,
        term_quadratic=int((omega * omega).sum()) / p_count**2,
    )
    if rep.exact_square_count > rep.bound_total:
        raise ArithmeticError(
            f"square-sieve inequality violated: {rep.exact_square_count} squares "
            f"> bound {rep.bound_total}"
        )
    return rep


def prime_char_sum(scan: PairScan, q1: int, q2: int) -> int:
    """sum over scanned p, p not in {q1, q2}, of ((4p-a_p^2)(4p-b_p^2)/q1q2)."""
    n = check_odd_prime_pair(q1, q2)
    return sum(
        jacobi_symbol(pair_product(p, a, b), n)
        for p, a, b in zip(scan.p.tolist(), scan.a_p.tolist(), scan.b_p.tolist())
        if p != q1 and p != q2
    )


def prime_char_sum_by_classes(scan: PairScan, q1: int, q2: int) -> int:
    """Same sum via the residue-class decomposition: the (d, s, t) histogram
    weighted by the symbol of (4d - s^2)(4d - t^2)."""
    table = chebotarev_empirical(scan, q1, q2)
    n = table.modulus
    return sum(
        c * jacobi_symbol((4 * d - s * s) * (4 * d - t * t), n)
        for d, s, t, c in table.cells()
        if c
    )


def choose_z_grh(x: float) -> float:
    """Window parameter for the conditional bound: x^(1/30) (log x)^(-1/15).

    Note this exceeds 3 (a usable window) only for astronomically large x;
    desk-scale experiments should use a fixed z instead.
    """
    check_bound_x(x)
    return x ** (1 / 30) * math.log(x) ** (-1 / 15)


def choose_z_uncond(x: float, c3: float = 1.0) -> float:
    """Window parameter for the unconditional bound:
    c3 (log x)^(1/42) (log log x)^(-1/21)."""
    check_bound_x(x)
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
