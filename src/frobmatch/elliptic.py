"""Reduction of integral curves y^2 = x^3 + Ax + B mod good primes and the
trace of Frobenius a_p = p + 1 - #E(F_p).

Two routes are provided:

* `ap_naive`  -- the exact O(p) Legendre-symbol sum; the ground truth.
* `ap_bsgs`   -- baby-step/giant-step order finding on sampled points in the
  Hasse interval, with lcm-of-orders disambiguation, a quadratic-twist
  fallback, and a final fallback to `ap_naive` (reachable for tiny p only).

The is-a-good-prime test uses the discriminant surrogate: bad primes are the
primes dividing 6*disc, a finite superset of the primes of bad reduction.
All counters downstream report which primes were excluded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

from frobmatch.arith import factorize

# Below this, interval order-finding gains nothing over the direct sum.
BSGS_MIN_PRIME = 457

# Affine points are (x, y) tuples; the point at infinity is None.
Point = tuple[int, int] | None


@dataclass(frozen=True)
class CurveQ:
    """Integral short-Weierstrass curve y^2 = x^3 + A x + B over Q."""

    A: int
    B: int
    discriminant: int = field(init=False)
    bad_primes: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        disc = -16 * (4 * self.A**3 + 27 * self.B**2)
        if disc == 0:
            raise ValueError(f"singular curve A={self.A} B={self.B} (disc = 0)")
        object.__setattr__(self, "discriminant", disc)
        object.__setattr__(self, "bad_primes", frozenset(factorize(abs(6 * disc))))

    def is_good(self, p: int) -> bool:
        return p not in self.bad_primes

    def label(self) -> str:
        return f"A={self.A} B={self.B}"


@dataclass(frozen=True)
class TraceRecord:
    p: int
    a_p: int

    def __post_init__(self) -> None:
        # Hasse: |a_p| <= 2 sqrt(p), strict for good p > 3
        if self.a_p * self.a_p >= 4 * self.p:
            raise ValueError(f"trace {self.a_p} out of range at p={self.p}")


def _require_good(curve: CurveQ, p: int) -> None:
    if p in curve.bad_primes:
        raise ValueError(f"p={p} is a bad prime for {curve.label()}; skip it")


def _chi_table(p: int) -> bytearray:
    """chi[v] = Legendre symbol (v/p), encoded 0->0, 1->1, -1->2."""
    chi = bytearray([2]) * p
    chi[0] = 0
    for v in range(1, p // 2 + 1):
        chi[v * v % p] = 1
    return chi


def ap_naive(curve: CurveQ, p: int) -> int:
    """a_p as the exact sum -sum_x ((x^3 + Ax + B)/p) of Legendre symbols."""
    _require_good(curve, p)
    chi = _chi_table(p)
    a, b = curve.A % p, curve.B % p
    s = 0
    for x in range(p):
        c = chi[(x * x % p * x + a * x + b) % p]
        if c == 1:
            s += 1
        elif c == 2:
            s -= 1
    a_p = -s
    assert a_p * a_p <= 4 * p, f"Hasse violated: a_p={a_p} at p={p}"
    return a_p


def count_points(curve: CurveQ, p: int) -> int:
    """#E(F_p) = p + 1 - a_p."""
    return p + 1 - ap_naive(curve, p)


# ---------------------------------------------------------------------------
# Mod-p point arithmetic (affine; None is the identity).


def _add(P: Point, Q: Point, a: int, p: int) -> Point:
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _mul(k: int, P: Point, a: int, p: int) -> Point:
    R: Point = None
    Q = P
    while k:
        if k & 1:
            R = _add(R, Q, a, p)
        Q = _add(Q, Q, a, p)
        k >>= 1
    return R


def _sqrt_mod(n: int, p: int) -> int:
    """Tonelli-Shanks; assumes n is a quadratic residue mod odd prime p."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _random_point(a: int, b: int, p: int, rng: random.Random) -> Point:
    while True:
        x = rng.randrange(p)
        f = (x * x % p * x + a * x + b) % p
        if f == 0:
            return (x, 0)
        if pow(f, (p - 1) // 2, p) == 1:
            return (x, _sqrt_mod(f, p))


def _order_from_multiple(P: Point, m: int, a: int, p: int) -> int:
    # m is a positive multiple of ord(P); strip primes while P still dies.
    d = m
    for ell in factorize(m):
        while d % ell == 0 and _mul(d // ell, P, a, p) is None:
            d //= ell
    return d


def _point_order(P: Point, a: int, p: int, lo: int, hi: int) -> int:
    """ord(P), found via BSGS for a multiple of it inside [lo, hi].

    [lo, hi] must contain a multiple of ord(P); the Hasse interval always
    does, since the group order annihilates every point.
    """
    width = hi - lo + 1
    s = math.isqrt(width) + 1
    baby: dict[tuple[int, int], int] = {}
    Q: Point = None
    for j in range(s):
        if j:
            Q = _add(Q, P, a, p)
            if Q is None:
                return j  # first return to identity is the exact order
            baby.setdefault(Q, j)
    sP = _mul(s, P, a, p)
    if sP is None:
        return s
    R = _mul(lo, P, a, p)
    for i in range(width // s + 2):
        if R is None:
            return _order_from_multiple(P, lo + i * s, a, p)
        x, y = R
        j = baby.get((x, (p - y) % p))
        if j is not None:
            return _order_from_multiple(P, lo + i * s + j, a, p)
        j = baby.get(R)
        if j is not None and lo + i * s - j > 0:
            return _order_from_multiple(P, lo + i * s - j, a, p)
        R = _add(R, sP, a, p)
    raise ArithmeticError(f"no annihilating multiple in [{lo},{hi}] at p={p}")


def _group_order(a: int, b: int, p: int, rng: random.Random, tries: int = 8) -> int | None:
    """#E(F_p) if the lcm of up to `tries` point orders pins it down."""
    half = math.isqrt(4 * p)
    lo, hi = p + 1 - half, p + 1 + half
    lcm = 1
    for _ in range(tries):
        pt = _random_point(a, b, p, rng)
        lcm = math.lcm(lcm, _point_order(pt, a, p, lo, hi))
        first, last = -(-lo // lcm), hi // lcm
        if first == last:
            return first * lcm
    return None


@lru_cache(maxsize=None)
def _least_nonresidue(p: int) -> int:
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return c


def ap_bsgs(curve: CurveQ, p: int) -> int:
    """Same value as `ap_naive`, via group-order finding in the Hasse interval.

    Determinism: the point sampler is seeded from (A, B, p), so repeated runs
    and parallel workers agree bit-for-bit.
    """
    _require_good(curve, p)
    if p <= BSGS_MIN_PRIME:
        return ap_naive(curve, p)
    a, b = curve.A % p, curve.B % p
    rng = random.Random(f"bsgs:{curve.A}:{curve.B}:{p}")
    order = _group_order(a, b, p, rng)
    if order is None:
        # Quadratic twist by a non-residue c: orders sum to 2p + 2.
        c = _least_nonresidue(p)
        tw = _group_order(a * c * c % p, b * c * c % p * c % p, p, rng)
        if tw is not None:
            order = 2 * p + 2 - tw
    if order is None:
        return ap_naive(curve, p)
    a_p = p + 1 - order
    assert a_p * a_p <= 4 * p, f"Hasse violated: a_p={a_p} at p={p}"
    return a_p


def quadratic_twist(curve: CurveQ, d: int) -> CurveQ:
    """The twist y^2 = x^3 + A d^2 x + B d^3 (trace scales by the symbol (d/p))."""
    if d == 0:
        raise ValueError("twist parameter must be nonzero")
    return CurveQ(curve.A * d * d, curve.B * d**3)
