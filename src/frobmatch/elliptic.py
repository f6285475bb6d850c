"""Reduction of integral curves y^2 = x^3 + Ax + B mod good primes and the
trace of Frobenius a_p = p + 1 - #E(F_p).

Two routes are provided:

* `ap_naive`  -- the exact O(p) Legendre-symbol sum; the ground truth.
* `ap_bsgs`   -- baby-step/giant-step order finding in the Hasse interval on
  points sampled from E and its quadratic twist at once (Shanks-Mestre, as in
  Cohen, A Course in Computational Algebraic Number Theory, Alg. 7.4.12),
  with lcm-of-orders disambiguation and a final fallback to `ap_naive`.

The is-a-good-prime test uses the discriminant surrogate: bad primes are the
primes dividing 6*disc, a finite superset of the primes of bad reduction.
All counters downstream report which primes were excluded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from frobmatch.arith import factorize

# Below this, interval order-finding gains nothing over the direct sum.
BSGS_MIN_PRIME = 457

# Points sampled per prime before ap_bsgs falls back to ap_naive.  Over five
# test curves (two CM) at 10^5 < p < 1.3*10^5, 98% of primes needed one point
# and none needed more than 8.
MAX_POINTS = 16

# Affine points are (x, y) tuples; the point at infinity is None.
Point = tuple[int, int] | None


@dataclass(frozen=True)
class CurveQ:
    """Integral short-Weierstrass curve y^2 = x^3 + A x + B over Q."""

    A: int
    B: int
    discriminant: int = field(init=False)

    def __post_init__(self) -> None:
        disc = -16 * (4 * self.A**3 + 27 * self.B**2)
        if disc == 0:
            raise ValueError(f"singular curve A={self.A} B={self.B} (disc = 0)")
        object.__setattr__(self, "discriminant", disc)

    @cached_property
    def bad_primes(self) -> frozenset[int]:
        """The primes dividing 6*disc, factored on first use (`is_good` needs no factoring)."""
        return frozenset(factorize(abs(6 * self.discriminant)))

    def is_good(self, p: int) -> bool:
        """True for a prime p not dividing 6*disc."""
        return (6 * self.discriminant) % p != 0

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
    if not curve.is_good(p):
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


def _group_order(a: int, b: int, p: int, rng: random.Random) -> int | None:
    """#E(F_p) if the point orders of up to MAX_POINTS samples pin it down.

    For f = x^3 + ax + b != 0 the point (xf, f^2) lies on
    y^2 = x^3 + a f^2 x + b f^3, which is E when f is a square and the
    quadratic twist E' when it is not; #E + #E' = 2p + 2.  No square root is
    needed.  Raises ValueError when the Euler criterion shows p is composite.
    """
    half = math.isqrt(4 * p)
    lo, hi, s = p + 1 - half, p + 1 + half, 2 * p + 2
    lcm_e = lcm_t = 1  # lcm of the point orders seen on E and on E'
    for _ in range(MAX_POINTS):
        x = rng.randrange(p)
        f = (x * x % p * x + a * x + b) % p
        if f == 0:
            continue
        euler = pow(f, (p - 1) // 2, p)
        if euler != 1 and euler != p - 1:
            raise ValueError(f"p={p} is not prime: {f}^((p-1)/2) = {euler}")
        order = _point_order((x * f % p, f * f % p), a * f * f % p, p, lo, hi)
        if euler == 1:
            lcm_e = math.lcm(lcm_e, order)
        else:
            lcm_t = math.lcm(lcm_t, order)
        # the n in [lo, hi] with lcm_e | n and lcm_t | s - n, stepping by the
        # larger lcm ([lo, hi] is symmetric under n -> s - n)
        if lcm_e >= lcm_t:
            found = [n for n in range(-(-lo // lcm_e) * lcm_e, hi + 1, lcm_e) if (s - n) % lcm_t == 0]
        else:
            found = [s - m for m in range(-(-lo // lcm_t) * lcm_t, hi + 1, lcm_t) if (s - m) % lcm_e == 0]
        if len(found) == 1:
            return found[0]
    return None


def ap_bsgs(curve: CurveQ, p: int) -> int:
    """Same value as `ap_naive`, via group-order finding in the Hasse interval.

    Determinism: the point sampler is seeded from (A, B, p), so repeated runs
    and parallel workers agree bit-for-bit.
    """
    _require_good(curve, p)
    if p <= BSGS_MIN_PRIME:
        return ap_naive(curve, p)
    rng = random.Random(f"bsgs:{curve.A}:{curve.B}:{p}")
    order = _group_order(curve.A % p, curve.B % p, p, rng)
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
