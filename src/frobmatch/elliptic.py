"""Reduction of integral curves y^2 = x^3 + Ax + B mod good primes and the
trace of Frobenius a_p = p + 1 - #E(F_p).

Two routes are provided, an oracle and an engine that shares nothing with it:

* `ap_naive`  -- the exact O(p) Legendre-symbol sum; the ground truth.
* `ap_stream` -- baby-step/giant-step search in the Hasse interval on points
  sampled from E and its quadratic twist at once (Shanks-Mestre, as in
  Cohen, A Course in Computational Algebraic Number Theory, Alg. 7.4.12),
  run in lockstep over a list of curves and a list of primes with one numpy
  lane per (prime, curve); the lanes it does not settle go to `ap_naive`.

`ap_lanes(curve, primes)` is `ap_stream` for one curve, and `ap_bsgs(curve,
p)` its one-prime entry point.

The is-a-good-prime test uses the discriminant surrogate: bad primes are the
primes dividing 6*disc, a finite superset of the primes of bad reduction.
All counters downstream report which primes were excluded.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from frobmatch.arith import factorize, is_prime, isqrt_column

# Mestre's bound: for p > 457, E or its quadratic twist has a point of order
# > 4 sqrt(p), so that order has exactly one multiple in the Hasse interval
# and the search can settle p.  At or below it nothing guarantees such a
# point, and those primes take the direct sum.
BSGS_MIN_PRIME = 457

# Every trace at a prime p < 2^60 is below 2^31 in size, and so is its square
# below 2^62: 4p - t^2 is then exact in int64.
TRACE_LIMIT = 1 << 31


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


def _require_good(curve: CurveQ, p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    # 2 and 3 divide 6*disc, so p < 5 is bad for every curve
    if p < 5 or not curve.is_good(p):
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
# The lane kernel: the BSGS search for many (prime, curve) pairs at once, one
# numpy lane each.  Points are homogeneous projective (X : Y : Z), one array per
# coordinate; Z = 0 is the identity.  Every product is of two residues
# already reduced mod p.

# Primes below this get int64 lanes: a product of two residues plus a few
# more residues stays below 2^63 (p < 3.037e9).  A call with a prime at or
# above it runs every lane on Python ints (numpy object arrays): exact, and
# many times slower.
LANE_MAX_PRIME = 3_030_000_000

# Table cells (rows x lanes) per kernel call.  The tables hold about
# 2 sqrt(2) p^(1/4) rows (61 at p = 2*10^5, 159 at 10^7), so a call takes
# about 2,150 lanes at 2*10^5 and 820 at 10^7, and its memory, about 37 bytes
# per cell at its peak, stays the same at every p.  Each numpy call costs
# about 1.5 us on top of its arithmetic, a fifth of a product mod p on 1024
# lanes; twice these cells gave no more speed and 4 MB more peak memory.
LANE_CELLS = 1 << 17

# Rounds, one sampled point each, before an open lane goes to ap_naive.  Over
# the five test curves of `verify` (two CM), 98.2% of the 12,835 good primes
# in (10^5, 1.3*10^5) were settled by the first point and none needed more
# than 10; in (457, 2*10^4), 94.0% of 10,869 and at most 12.
MAX_POINTS = 16

Lanes = tuple[np.ndarray, np.ndarray, np.ndarray]


def _lane_dbl(P: Lanes, a: np.ndarray, p: np.ndarray) -> Lanes:
    """2P (dbl-2007-bl); a point with Y = 0, or the identity, doubles to Z = 0."""
    X, Y, Z = P
    xx = X * X % p
    w = (a * (Z * Z % p) + 3 * xx) % p
    s = 2 * (Y * Z % p) % p
    r = Y * s % p
    rr = r * r % p
    xr = (X + r) % p
    b = (xr * xr - xx - rr) % p
    h = (w * w - 2 * b) % p
    return h * s % p, (w * ((b - h) % p) - 2 * rr) % p, s * (s * s % p) % p


def _lane_add(P: Lanes, Q: Lanes, a: np.ndarray, p: np.ndarray, affine: bool = False) -> Lanes:
    """P + Q (add-1998-cmo-2), complete: P + (-P) gives Z = 0 from the formula
    itself, and the few lanes with P = Q or an identity operand are redone
    apart (doubling, or the other operand).  affine=True says that Q's Z is 1
    on every lane, and skips the products by it."""
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    if affine:
        y1z2, x1z2, z1z2 = Y1, X1, Z1
    else:
        y1z2, x1z2, z1z2 = Y1 * Z2 % p, X1 * Z2 % p, Z1 * Z2 % p
    u = (Y2 * Z1 - y1z2) % p
    v = (X2 * Z1 - x1z2) % p
    vv = v * v % p
    vvv = v * vv % p
    r = vv * x1z2 % p
    c = (u * u % p * z1z2 - vvv - 2 * r) % p
    X3 = v * c % p
    Y3 = (u * ((r - c) % p) - vvv * y1z2) % p  # a difference of two products < p^2
    Z3 = vvv * z1z2 % p
    special = (v == 0) | (Z1 == 0)
    if not affine:
        special |= Z2 == 0
    i = np.flatnonzero(special)
    if i.size:
        inf1, inf2 = Z1[i] == 0, Z2[i] == 0
        same = i[(u[i] == 0) & (v[i] == 0) & ~inf1 & ~inf2]
        if same.size:
            X3[same], Y3[same], Z3[same] = _lane_dbl((X1[same], Y1[same], Z1[same]), a[same], p[same])
        for out, q1, q2 in zip((X3, Y3, Z3), P, Q):
            out[i] = np.where(inf1, q2[i], np.where(inf2, q1[i], out[i]))
    return X3, Y3, Z3


def _lane_mul(n: np.ndarray, table: Lanes, a: np.ndarray, p: np.ndarray) -> Lanes:
    """n_i P_i for positive scalars n_i, where row e - 1 of each (rows, lanes)
    table holds eP: by w-bit windows, the largest w with 2^w - 1 <= rows."""
    X, Y, Z = table
    w = (len(X) + 1).bit_length() - 1
    lane = np.arange(len(p))
    R = None
    top = -(-int(n.max()).bit_length() // w) * w
    for shift in range(top - w, -1, -w):
        d = ((n >> shift) & ((1 << w) - 1)).astype(np.intp, copy=False)
        row = d - 1  # the last row when d = 0, which Z = 0 then turns into O
        T = (X[row, lane], Y[row, lane], np.where(d == 0, 0, Z[row, lane]))
        if R is None:
            R = T
            continue
        for _ in range(w):
            R = _lane_dbl(R, a, p)
        R = _lane_add(R, T, a, p)
    return R


def _lane_pow(b: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """b_i^n_i mod p_i for nonnegative exponents n_i."""
    r = np.ones_like(p)
    for bit in range(int(n.max()).bit_length() - 1, -1, -1):
        r = r * r % p
        r = np.where((n >> bit) & 1 == 1, r * b % p, r)
    return r


def _lane_invert(Z: np.ndarray, p: np.ndarray) -> None:
    """Replace each entry of a (rows, lanes) table without zeros by its
    inverse mod p, through Montgomery's simultaneous inversion along the rows
    (Math. Comp. 48, 1987): one Fermat inverse per lane."""
    acc = np.empty_like(Z)  # acc[i] = Z[0] Z[1] ... Z[i]
    acc[0] = Z[0]
    for i in range(1, len(Z)):
        acc[i] = acc[i - 1] * Z[i] % p
    inv = _lane_pow(acc[-1], p - 2, p)
    for i in range(len(Z) - 1, 0, -1):
        inv, Z[i] = inv * Z[i] % p, inv * acc[i - 1] % p  # 1/(Z[0]..Z[i-1]), 1/Z[i]
    Z[0] = inv


def _splitmix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser on uint64 arrays (wrapping arithmetic)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _lane_tables(P: Lanes, a: np.ndarray, p: np.ndarray, s: int, K: int):
    """(X, Y, inf): tables of shape (s + 2K + 1, lanes), for P with Z = 1 on
    every lane.  Row e holds
    (e + 1)P for e < s, row s + i holds Q - (i - K)(2s + 1)P with
    Q = (p + 1)P; X and Y are the affine x and y, and inf marks O."""
    X, Y, Z = (np.empty((s + 2 * K + 1, len(p)), p.dtype) for _ in range(3))
    R = P
    for e in range(s):
        if e:
            R = _lane_dbl(P, a, p) if e == 1 else _lane_add(R, P, a, p, affine=True)
        X[e], Y[e], Z[e] = R
    D = _lane_add(_lane_dbl(R, a, p), P, a, p, affine=True)  # (2s+1)P
    minus_D = (D[0], (p - D[1]) % p, D[2])
    R = _lane_mul(p + 1 + K * (2 * s + 1), (X[:s], Y[:s], Z[:s]), a, p)
    for i in range(2 * K + 1):
        if i:
            R = _lane_add(R, minus_D, a, p)
        X[s + i], Y[s + i], Z[s + i] = R
    inf = Z == 0
    Z[inf] = 1  # identities stay out of the inversion
    _lane_invert(Z, p)
    for T in (X, Y):
        T *= Z
        T %= p
    return X, Y, inf


def _lane_match(
    X: np.ndarray, Y: np.ndarray, inf: np.ndarray, s: int, K: int, p: np.ndarray, h: np.ndarray
):
    """(t, count) per lane from `_lane_tables`: count is the number of t in
    [-h, h] with tP = Q, and t is one of them; count = -1 when P has order
    <= 2s (when s <= h, several t fit then anyway).  Overwrites X.

    eP (e <= s) is O, has y = 0 or repeats an x exactly when P has order
    <= 2s.  Otherwise the 2s + 1 points jP (|j| <= s) are distinct, so each
    giant point is at most one of them: an x match, with y deciding the sign
    of j, or O for j = 0.
    """
    step = 2 * s + 1
    L = X.shape[1]
    small = inf[:s].any(axis=0) | (Y[:s] == 0).any(axis=0)
    # match keys lane | x | row, with x in xbits and row in rbits bits; no
    # residue x < p is 2^xbits - 1, so identities match nothing
    xbits, rbits = int(p.max()).bit_length(), len(X).bit_length()
    if X.dtype != object and (L - 1).bit_length() + xbits + rbits > 63:
        raise OverflowError(f"match keys of {L} lanes and {len(X)} rows do not fit int64")
    X[inf] = (1 << xbits) - 1
    X <<= rbits
    X |= np.arange(len(X))[:, None]
    X |= np.arange(L, dtype=X.dtype) << (xbits + rbits)
    keys = X.ravel()
    keys.sort()
    row = np.empty(len(keys), np.int32)
    np.bitwise_and(keys, (1 << rbits) - 1, out=row, casting="unsafe")
    keys >>= rbits  # (lane << xbits) | x
    baby = row < s
    same = keys[1:] == keys[:-1]
    small[(keys[1:][same & baby[1:] & baby[:-1]] >> xbits).astype(np.intp)] = True
    # a run of equal keys starts with its baby, if it has one (a second one
    # makes the lane small)
    start = np.arange(len(keys), dtype=np.int32)
    start[1:][same] = 0
    np.maximum.accumulate(start, out=start)
    hit = np.flatnonzero(~baby & baby[start])
    lane = (keys[hit] >> xbits).astype(np.intp)
    g, e = row[hit], row[start[hit]]  # giant row; baby row e holds (e + 1)P
    j = np.where(Y[g, lane] == Y[e, lane], e + 1, -e - 1)
    rows, zero_lanes = np.nonzero(inf[s:])
    lanes = np.concatenate((lane, zero_lanes))
    t = np.concatenate(((g - s - K) * step + j, (rows - K) * step))
    inside = np.abs(t) <= h[lanes]
    lanes, t = lanes[inside], t[inside]
    found = np.zeros(L, np.int64)
    found[lanes] = t
    count = np.bincount(lanes, minlength=L)
    count[small] = -1
    return found, count


def _table_shape(hmax: int) -> tuple[int, int]:
    """(s, K) for a batch whose widest Hasse interval is [-hmax, hmax]: s baby
    steps and 2K + 1 giant steps of 2s + 1 cover it, in s + 2K + 1 rows."""
    s = math.isqrt(hmax) + 1
    return s, max(0, -(-(hmax - s) // (2 * s + 1)))


def _rows(hmax: int) -> int:
    s, K = _table_shape(hmax)
    return s + 2 * K + 1


def _hasse_radius(p: np.ndarray) -> np.ndarray:
    """floor(2 sqrt(p)) per lane, as int64."""
    if p.dtype == object:
        return np.array([math.isqrt(4 * q) for q in p.tolist()], dtype=np.int64)
    return isqrt_column(4 * p)


def _residues(v: list[int], which: np.ndarray, p: np.ndarray) -> np.ndarray:
    """v[which] mod p elementwise (broadcast), in p's dtype, for Python ints
    v of any size: int64 arithmetic when v and p fit it, Python ints if not."""
    if p.dtype != object and all(-(1 << 63) <= x < 1 << 63 for x in v):
        return np.remainder(np.array(v, dtype=np.int64)[which], p)
    return np.remainder(np.array(v, dtype=object)[which], p.astype(object)).astype(p.dtype)


def _batch_size(n_open: int, h_open: int, h_fresh: np.ndarray) -> int:
    """How many of the new lanes, floor(2 sqrt(p)) = h_fresh, join n_open
    lanes whose widest h is h_open, so that the tables stay within
    LANE_CELLS cells; at least one when no lane is open."""
    top = np.maximum(np.maximum.accumulate(h_fresh), h_open)
    # a call's cells rise with its count n of new lanes, so bisection finds the largest n
    counts = range(1, len(top) + 1)
    n = bisect_right(counts, LANE_CELLS, key=lambda n: (n_open + n) * _rows(int(top[n - 1])))
    return max(n, 0 if n_open else 1)


def _lane_round(
    p: np.ndarray, a: np.ndarray, b: np.ndarray, h: np.ndarray, rnd: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One sampled point per lane of y^2 = x^3 + ax + b mod p, where h is
    floor(2 sqrt(p)) and rnd the lane's round: (t, resolved), with a_p = t on
    the resolved lanes.

    For f = x^3 + ax + b != 0 the point P = (xf, f^2) lies on
    y^2 = x^3 + a f^2 x + b f^3, which is E when f is a square and its
    quadratic twist when it is not (Euler's criterion tells which), so no
    square root is needed.  x is a hash of (a, b, p, rnd) alone, so a lane's
    point does not depend on the batch around it.  With Q = (p+1)P, a baby
    table eP (e = 1..s) and giant points Q - k(2s+1)P (|k| <= K), every t in
    [-h, h] with tP = Q is k(2s+1) + j for one (k, j), |j| <= s.  The lane is
    resolved when exactly one such t exists; then t is the trace of the curve
    P lies on, which is a_p or, on the twist, -a_p.
    """
    u64 = p.astype(np.uint64)
    z = _splitmix(_splitmix(_splitmix(u64) ^ a.astype(np.uint64)) ^ b.astype(np.uint64))
    x = (_splitmix(z + rnd.astype(np.uint64)) % u64).astype(p.dtype)
    f = (x * x % p * x + a * x % p + b) % p
    euler = _lane_pow(f, (p - 1) // 2, p)
    composite = (f != 0) & (euler != 1) & (euler != p - 1)
    if composite.any():
        q = int(p[composite][0])
        raise ValueError(f"p={q} is not prime: Euler's criterion fails")
    ff = f * f % p
    P = (x * f % p, ff, np.ones_like(p))
    s, K = _table_shape(int(h.max()))
    X, Y, inf = _lane_tables(P, a * ff % p, p, s, K)
    t, count = _lane_match(X, Y, inf, s, K, p, h)
    return np.where(euler == 1, t, -t), (count == 1) & (f != 0)


def _lane_stream(curves: list[CurveQ], primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(traces, settled), two (len(primes), len(curves)) arrays: the kernel's
    a_p where settled is True.

    The lanes are the pairs (p, curve) with p > BSGS_MIN_PRIME good for the
    curve, ordered by prime and then by curve, and lane k is entry k of the
    flattened arrays.  Each call of `_lane_round` takes the lanes still open
    from the call before, each on its next round, and then as many new lanes
    as keep its tables within LANE_CELLS cells, so only the last call of the
    stream has fewer.  A lane still open after MAX_POINTS rounds stays
    unsettled.
    """
    C = len(curves)
    dtype = np.int64 if max(primes, default=0) < LANE_MAX_PRIME else object
    col = np.array(primes, dtype=dtype)
    good = np.zeros((len(col), C), bool)
    above = col > BSGS_MIN_PRIME
    good[above] = _residues([6 * c.discriminant for c in curves], np.arange(C), col[above, None]) != 0
    lanes = np.flatnonzero(good)
    traces = np.zeros(good.shape, np.int64)
    settled = np.zeros(good.shape, bool)
    A, B = [c.A for c in curves], [c.B for c in curves]
    # the open lanes carried to the next call: lane, round, floor(2 sqrt(p))
    open_, rnd, h = (np.zeros(0, np.int64) for _ in range(3))
    start = 0
    while start < lanes.size or open_.size:
        if start < lanes.size:
            # no more new lanes than fit beside the next one alone
            hmax = max(int(h.max(initial=0)), math.isqrt(4 * int(col[lanes[start] // C])))
            fresh = lanes[start : start + max(1, LANE_CELLS // _rows(hmax) - open_.size)]
            h_fresh = _hasse_radius(col[fresh // C])
            n = _batch_size(open_.size, hmax, h_fresh)
            fresh, h_fresh = fresh[:n], h_fresh[:n]
            start += n
            open_ = np.concatenate((open_, fresh))
            rnd = np.concatenate((rnd, np.zeros(fresh.size, np.int64)))
            h = np.concatenate((h, h_fresh))
        i, c = np.divmod(open_, C)
        p = col[i]
        t, resolved = _lane_round(p, _residues(A, c, p), _residues(B, c, p), h, rnd)
        done = open_[resolved]
        traces.flat[done] = t[resolved]
        settled.flat[done] = True
        keep = ~resolved & (rnd < MAX_POINTS - 1)
        open_, rnd, h = open_[keep], rnd[keep] + 1, h[keep]
    return traces, settled


def ap_stream(curves: list[CurveQ], primes: list[int]) -> list[list[int]]:
    """[[a_p for p in primes] for curve in curves], the values of `ap_naive`,
    computed by `_lane_stream` with one numpy lane per (prime, curve).

    The lanes are int64 when every prime is below LANE_MAX_PRIME and Python
    ints otherwise; the sampler hashes each prime as a uint64, so primes must
    be below 2^64.  Primes <= BSGS_MIN_PRIME and lanes still open after
    MAX_POINTS rounds are computed by `ap_naive`, curve by curve in prime
    order; so are bad primes, which it rejects with ValueError.  Lanes do not
    test primality (that needs trial division per prime); their Euler check
    raises ValueError on most composites.
    """
    traces, settled = _lane_stream(curves, primes)
    out = []
    for k, curve in enumerate(curves):
        row = traces[:, k].tolist()
        for i in np.flatnonzero(~settled[:, k]).tolist():
            row[i] = ap_naive(curve, primes[i])
        out.append(row)
    return out


def ap_lanes(curve: CurveQ, primes: list[int]) -> list[int]:
    """[a_p for p in primes]: `ap_stream` on one curve."""
    return ap_stream([curve], primes)[0]


def ap_bsgs(curve: CurveQ, p: int) -> int:
    """a_p at one good prime p: `ap_lanes` on a single lane, after checking
    that p is a good prime.  The sampled points depend on (A mod p, B mod p,
    p) alone, so repeated runs and parallel workers agree bit-for-bit."""
    _require_good(curve, p)
    return ap_lanes(curve, [p])[0]


def quadratic_twist(curve: CurveQ, d: int) -> CurveQ:
    """The twist y^2 = x^3 + A d^2 x + B d^3 (trace scales by the symbol (d/p))."""
    if d == 0:
        raise ValueError("twist parameter must be nonzero")
    return CurveQ(curve.A * d * d, curve.B * d**3)
