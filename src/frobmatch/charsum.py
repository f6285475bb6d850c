"""Complete quadratic character sums, Jacobi sums, and the triple sum over
residue classes that feeds the sieve main term.

The complete sum sum_x ((4d - x^2)/q) over x mod q evaluates, for any unit d,
to the d-independent constant -((-1)/q); that closed form is verified against
the literal sum for every q and d in range.  A half-weighted reduction
(1/2)(-((-1)/q) + (d/q)) sometimes quoted for this sum does NOT match the
literal value in general (first failure at q=5, d=1, where the sum is -1 but
the reduction gives 0); the verification report tabulates both, since only
the containment of the sum in {-1, 0, 1} matters downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from frobmatch.arith import check_odd_prime, check_odd_prime_pair, check_unit, is_prime, jacobi_symbol

CHARSUM_CSV_COLUMNS = ["q", "d", "bruteforce", "closed", "agree", "half_reduction", "half_agrees"]

# Direct (mod q1q2) evaluation of the triple sum is O(phi(n) * n^2); cap it.
TRIPLE_DIRECT_LIMIT = 10_000


def weil_sum_bruteforce(q: int, d: int) -> int:
    """Literal sum of Legendre symbols ((4d - x^2)/q) over x = 0..q-1."""
    check_odd_prime(q)
    check_unit(d, q)
    return sum(jacobi_symbol(4 * d - x * x, q) for x in range(q))


def weil_sum_closed(q: int, d: int) -> int:
    """Closed form of the complete sum: -((-1)/q), independent of the unit d."""
    check_odd_prime(q)
    check_unit(d, q)
    return -1 if q % 4 == 1 else 1


def half_reduction(q: int, d: int) -> int:
    """The half-weighted expression (1/2)(-((-1)/q) + (d/q)).

    Recorded for reference only; it disagrees with the literal sum in general.
    """
    check_odd_prime(q)
    check_unit(d, q)
    return (-jacobi_symbol(-1, q) + jacobi_symbol(d, q)) // 2


@dataclass(frozen=True)
class CharSumTable:
    """values[d] = complete quadratic sum at modulus q, for every unit d."""

    q: int
    values: dict[int, int]


def char_sum_table(q: int) -> CharSumTable:
    return CharSumTable(q, {d: weil_sum_bruteforce(q, d) for d in range(1, q)})


def jacobi_sum(q: int) -> int:
    """J(chi, chi) = sum_a chi(a) chi(1 - a) for the quadratic character mod q.

    Since chi is self-inverse this equals -chi(-1).
    """
    check_odd_prime(q)
    return sum(jacobi_symbol(a, q) * jacobi_symbol(1 - a, q) for a in range(q))


def _jacobi_table(n: int) -> np.ndarray:
    return np.array([jacobi_symbol(v, n) for v in range(n)], dtype=np.int8)


def triple_sum_direct(q1: int, q2: int) -> int:
    """sum over unit d and all s, t mod q1q2 of ((4d-s^2)(4d-t^2)/q1q2),
    every symbol evaluated at the actual product mod q1q2."""
    n = q1 * q2
    if n > TRIPLE_DIRECT_LIMIT:
        raise ValueError(f"modulus {n} too large for the direct path")
    jtab = _jacobi_table(n)
    usq = (np.arange(n, dtype=np.int64) ** 2) % n
    total = 0
    for d in range(1, n):
        if math.gcd(d, n) != 1:
            continue
        vals = ((4 * d - usq) % n).astype(np.int32)
        prods = (vals[:, None] * vals[None, :]) % n
        total += int(jtab[prods].sum())
    return total


def triple_sum_factored(q1: int, q2: int) -> int:
    """Same sum, rearranged as sum_d (inner sum)^2 and split by the Chinese
    remainder theorem into per-prime complete sums (computed by brute force)."""
    n = q1 * q2
    w1 = {d1: weil_sum_bruteforce(q1, d1) for d1 in range(1, q1)}
    w2 = {d2: weil_sum_bruteforce(q2, d2) for d2 in range(1, q2)}
    total = 0
    for d in range(1, n):
        if math.gcd(d, n) != 1:
            continue
        total += (w1[d % q1] * w2[d % q2]) ** 2
    return total


def triple_sum(q1: int, q2: int) -> int:
    """The residue-class triple sum, cross-checked between both evaluation
    paths; always within (q1-1)(q2-1)."""
    check_odd_prime_pair(q1, q2)
    factored = triple_sum_factored(q1, q2)
    if q1 * q2 <= TRIPLE_DIRECT_LIMIT:
        direct = triple_sum_direct(q1, q2)
        if direct != factored:
            raise ArithmeticError(
                f"triple-sum paths disagree at ({q1}, {q2}): {direct} vs {factored}"
            )
    bound = (q1 - 1) * (q2 - 1)
    if factored > bound:
        raise ArithmeticError(f"triple sum {factored} exceeds bound {bound} at ({q1}, {q2})")
    return factored


def charsum_verification_rows(q_max: int = 97) -> list[list]:
    """Brute-vs-closed rows for every odd prime q <= q_max and every unit d,
    with the half-weighted reduction recorded alongside."""
    rows: list[list] = []
    for q in range(3, q_max + 1, 2):
        if not is_prime(q):
            continue
        for d in range(1, q):
            brute = weil_sum_bruteforce(q, d)
            closed = weil_sum_closed(q, d)
            half = half_reduction(q, d)
            rows.append(
                [
                    q,
                    d,
                    brute,
                    closed,
                    "true" if brute == closed else "false",
                    half,
                    "true" if brute == half else "false",
                ]
            )
    return rows
