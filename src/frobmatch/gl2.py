"""Exact counting in GL2(Z/q1q2) and in the equal-determinant pair group.

Every closed formula here has a brute-force twin that enumerates matrices
and histograms (determinant, trace); the two are compared cell by cell in
the verification report.  The formula-based class ratios are exact only when
the mod-q1q2 Galois image is all of GL2, which holds for non-CM curves once
the moduli are large enough; the empirical comparisons report deviations
without assuming that regime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from frobmatch.arith import check_odd_prime, check_odd_prime_pair, check_unit, factorize, jacobi_symbol

# Largest modulus we enumerate directly (modulus**4 matrices).
ENUM_LIMIT = 35

GL2_CSV_COLUMNS = ["q1", "q2", "d", "s", "t", "formula", "bruteforce", "equal"]


def count_det_trace_single(q: int, d: int, t: int) -> int:
    """#{g in GL2(Z/q) : det g = d, tr g = t} = q(q + ((t^2-4d)/q))."""
    check_odd_prime(q)
    check_unit(d, q)
    return q * (q + jacobi_symbol(t * t - 4 * d, q))


def count_det_trace_formula(q1: int, q2: int, d: int, t: int) -> int:
    """Matrix count with fixed unit determinant d and trace t mod q1*q2."""
    n = check_odd_prime_pair(q1, q2)
    check_unit(d, n)
    return (
        q1
        * q2
        * (q1 + jacobi_symbol(t * t - 4 * d, q1))
        * (q2 + jacobi_symbol(t * t - 4 * d, q2))
    )


@lru_cache(maxsize=None)
def det_trace_histogram(n: int) -> np.ndarray:
    """hist[det, trace] over all n^4 matrices mod n (exhaustive enumeration)."""
    if n > ENUM_LIMIT:
        raise ValueError(f"modulus {n} too large to enumerate (limit {ENUM_LIMIT})")
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    bc = (np.arange(n, dtype=np.int64)[:, None] * np.arange(n, dtype=np.int64)).ravel() % n
    hist = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for dd in range(n):
            tr = (a + dd) % n
            hist[:, tr] += np.bincount((a * dd - bc) % n, minlength=n)
    return hist


def _check_enum_modulus(q: int) -> None:
    if q > ENUM_LIMIT:
        raise ValueError(f"modulus {q} too large to enumerate (limit {ENUM_LIMIT})")
    if q % 2 == 0 or q < 3:
        raise ValueError(f"modulus must be odd and >= 3, got {q}")
    facs = factorize(q)
    if any(e > 1 for e in facs.values()) or len(facs) > 2:
        raise ValueError(f"modulus must be a prime or a product of two distinct primes, got {q}")


def count_det_trace_bruteforce(q: int, d: int, t: int) -> int:
    """Exhaustive count of matrices mod q with det = d (a unit) and trace = t."""
    _check_enum_modulus(q)
    check_unit(d, q)
    return int(det_trace_histogram(q)[d % q, t % q])


def gl2_order_enumerated(n: int) -> int:
    """|GL2(Z/n)| by summing the histogram over unit determinants."""
    hist = det_trace_histogram(n)
    return int(sum(hist[d].sum() for d in range(n) if math.gcd(d, n) == 1))


def order_H_formula(q1: int, q2: int) -> int:
    """Order of the equal-determinant subgroup of GL2(Z/q1)^2 x GL2(Z/q2)^2.

    Equals |GL2(Z/q1q2)|^2 / phi(q1q2): the subgroup is the kernel of
    (A1, A2) -> det(A1) det(A2)^{-1}.
    """
    check_odd_prime_pair(q1, q2)
    return (
        q1**2 * (q1 - 1) * (q1**2 - 1) ** 2 * q2**2 * (q2 - 1) * (q2**2 - 1) ** 2
    )


def order_H_histogram(q1: int, q2: int) -> int:
    """Enumeration route for `order_H_formula`: sum of N(d)^2 over unit d,
    where N(d) counts matrices mod q1*q2 with determinant d."""
    n = check_odd_prime_pair(q1, q2)
    hist = det_trace_histogram(n)
    return int(sum(int(hist[d].sum()) ** 2 for d in range(n) if math.gcd(d, n) == 1))


def pair_class_count(q1: int, q2: int, d: int, s: int, t: int) -> int:
    """#C(s, t, d): pairs of matrices with common unit determinant d and
    traces s and t, from the closed product formula."""
    return count_det_trace_formula(q1, q2, d, s) * count_det_trace_formula(q1, q2, d, t)


def pair_class_count_bruteforce(q1: int, q2: int, d: int, s: int, t: int) -> int:
    n = check_odd_prime_pair(q1, q2)
    hist = det_trace_histogram(n)
    check_unit(d, n)
    return int(hist[d % n, s % n]) * int(hist[d % n, t % n])


def class_ratio(q1: int, q2: int, d: int, s: int, t: int) -> Fraction:
    """Exact rational #C(s, t, d) / #H; sums to 1 over unit d and all s, t."""
    return Fraction(pair_class_count(q1, q2, d, s, t), order_H_formula(q1, q2))


def class_ratio_main_term(q1: int, q2: int) -> Fraction:
    """The symbol-free leading value of `class_ratio` (all four symbols 0)."""
    return Fraction(
        q1**2 * q2**2,
        (q1 - 1) * (q1**2 - 1) ** 2 * (q2 - 1) * (q2**2 - 1) ** 2,
    )


def degree_bound_check(q1: int, q2: int, z: float) -> bool:
    """order_H(q1, q2) <= z^14, for primes inside the window (z/2, z]."""
    for q in (q1, q2):
        if not (z / 2 < q <= z):
            raise ValueError(f"prime {q} outside the window ({z / 2}, {z}]")
    return order_H_formula(q1, q2) <= Fraction(z) ** 14


def verification_rows(
    single_primes: tuple[int, ...] = (3, 5, 7, 11, 13),
    prime_pairs: tuple[tuple[int, int], ...] = ((3, 5), (3, 7), (5, 7)),
) -> list[list]:
    """Formula-vs-enumeration rows in the report schema (s empty for the
    single-matrix checks, filled for the pair-class checks)."""
    rows: list[list] = []
    for q in single_primes:
        for d in range(1, q):
            for t in range(q):
                f = count_det_trace_single(q, d, t)
                b = count_det_trace_bruteforce(q, d, t)
                rows.append([q, "", d, "", t, f, b, "true" if f == b else "false"])
    for q1, q2 in prime_pairs:
        n = q1 * q2
        for d in range(1, n):
            if math.gcd(d, n) != 1:
                continue
            for t in range(n):
                f = count_det_trace_formula(q1, q2, d, t)
                b = count_det_trace_bruteforce(n, d, t)
                rows.append([q1, q2, d, "", t, f, b, "true" if f == b else "false"])
    return rows
