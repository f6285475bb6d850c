"""The lane kernel `ap_stream`, one curve or several, against `ap_naive` and
a group-law certificate, its parity test against `ap_naive` and the cubic's
roots, the share of lanes its first point settles, the shape of its trace
table, its primitives against scalar twins at the int64 edge, its int64 and
2^64 limits and its Python-int lanes between them, its table shapes, its
batching and segments, its residues of coefficients of any size and its
`ap_naive` fallback; and the prime check of the one-prime entry points."""

import math
import random

import numpy as np
import pytest

from frobmatch import elliptic, experiment
from frobmatch.arith import is_prime
from frobmatch.elliptic import LANE_MAX_PRIME, CurveQ, ap_bsgs, ap_naive, ap_stream
from frobmatch.experiment import compute_traces
from frobmatch.frobenius import good_primes
from frobmatch.verify import DEMO_PAIR, TEST_CURVES
from conftest import naive_ap, naive_roots, naive_row

SAMPLE_CURVES = (CurveQ(2, 3), CurveQ(0, 1), CurveQ(1, 0))  # the last two CM
# Two pairs of TEST_CURVES for the stream; the second has the CM curve y^2 = x^3 + 1.
STREAM_PAIRS = ((CurveQ(2, 3), CurveQ(5, 7)), (CurveQ(0, 1), CurveQ(-4, 4)))

# Three primes above LANE_MAX_PRIME (the first at or above 3.03*10^9) and
# their traces on CurveQ(2, 3), cross-checked with an independent scalar
# BSGS search (Cohen, Alg. 7.4.12).
ABOVE_LIMIT = {3030000073: 43482, 3030000097: 14542, 3030000121: 646}


@pytest.fixture
def naive_calls(monkeypatch):
    """The primes `ap_stream` hands to its fallback `ap_naive`, in call order."""
    calls = []
    real = elliptic.ap_naive

    def spy(curve, p):
        calls.append(p)
        return real(curve, p)

    monkeypatch.setattr(elliptic, "ap_naive", spy)
    return calls


def _seeded_primes(curve, lo, n, seed):
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        p = rng.randrange(lo, 2 * lo)
        if is_prime(p) and curve.is_good(p):
            out.add(p)
    return sorted(out)


# Scalar affine arithmetic for the certificate; it shares no code with
# frobmatch.elliptic.  None is the point at infinity.


def _ec_add(P, Q, a, p):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(n, P, a, p):
    R = None
    while n:
        if n & 1:
            R = _ec_add(R, P, a, p)
        P = _ec_add(P, P, a, p)
        n >>= 1
    return R


def _assert_certified(curve, p, t):
    """Group-law certificate for a_p = t: for 8 seeded x with
    f = x^3 + Ax + B != 0, the point (xf, f^2) lies on y^2 = x^3 + Af^2 x + Bf^3,
    which is E when f is a square mod p and its quadratic twist when not; so
    p + 1 - t, resp. p + 1 + t, must kill it."""
    assert t * t < 4 * p
    rng = random.Random(f"cert:{p}")
    a, b = curve.A % p, curve.B % p
    done = 0
    while done < 8:
        x = rng.randrange(p)
        f = (x * x * x + a * x + b) % p
        if f == 0:
            continue
        (u, v), af = (x * f % p, f * f % p), a * f * f % p
        assert (v * v - u * u * u - af * u - b * f**3) % p == 0
        n = p + 1 - t if pow(f, (p - 1) // 2, p) == 1 else p + 1 + t
        assert _ec_mul(n, (u, v), af, p) is None, f"{n} P != O at p={p}, t={t}"
        done += 1


def _scaled(P, lam, p):
    """The affine point P (None for O) as projective (X, Y, Z) with Z = lam;
    O as (p - 1, p - 1, 0)."""
    if P is None:
        return p - 1, p - 1, 0
    return P[0] * lam % p, P[1] * lam % p, lam


def _scales(P, p, rng):
    """Projective scales of P that put p - 1 in each of its coordinates, and
    one random scale."""
    out = [p - 1, rng.randrange(1, p)]
    if P is not None:
        out += [-pow(c, -1, p) % p for c in P if c]
    return out


def _edge_cases(p, rng):
    """(a, P, Q) triples at the prime p, P and Q on one curve
    y^2 = x^3 + ax + b (b is implied): generic sums, P = Q, P = -Q and
    identity operands, with a, x or y equal to p - 1 among them."""
    cases = []
    for a in (p - 1, rng.randrange(p)):
        for base in ((p - 1, rng.randrange(1, p)), (rng.randrange(p), p - 1), (rng.randrange(p), rng.randrange(1, p))):
            for P in (_ec_mul(rng.randrange(2, p), base, a, p), base, (base[0], p - base[1]), None):
                cases += [(a, P, base), (a, base, P)]
        cases.append((a, None, None))
    return cases


def _affine_of(X, Y, Z, p):
    if Z == 0:
        return None
    zi = pow(Z, -1, p)
    return X * zi % p, Y * zi % p


def _polymulmod(f, g, a, b, p):
    """f g mod (x^3 + ax + b, p) for Python-int polynomials [c0, c1, c2]."""
    c = [0] * 5
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            c[i + j] += fi * gj
    for d in (4, 3):  # x^d = x^(d - 3) (-ax - b)
        c[d - 2] -= a * c[d]
        c[d - 3] -= b * c[d]
    return [v % p for v in c[:3]]


def _xpow_scalar(p, a, b):
    """x^p mod (x^3 + ax + b, p) as [c0, c1, c2], by square-and-multiply on
    Python-int polynomials."""
    r, x = [1, 0, 0], [0, 1, 0]
    for bit in bin(p)[2:]:
        r = _polymulmod(r, r, a, b, p)
        if bit == "1":
            r = _polymulmod(r, x, a, b, p)
    return r


def _edge_primes():
    """The three largest primes below LANE_MAX_PRIME, on int64 lanes, and the
    first three at or above it, on Python-int lanes."""
    below = [p for p in range(LANE_MAX_PRIME - 1, LANE_MAX_PRIME - 300, -1) if is_prime(p)][:3]
    above = [p for p in range(LANE_MAX_PRIME, LANE_MAX_PRIME + 300) if is_prime(p)][:3]
    return [(below, np.int64), (above, object)]


class TestPrimitivesAtTheEdge:
    """The kernel's point and field primitives against scalar twins that share
    no code with them, at the largest primes of the int64 lanes, with p - 1 in
    every operand; numpy does not warn when int64 wraps, so these are the
    guard on LANE_MAX_PRIME.  The same cases run on Python-int lanes."""

    @staticmethod
    def _lanes(rows, dtype):
        return tuple(np.array(col, dtype=dtype) for col in zip(*rows))

    @pytest.mark.parametrize("affine", [False, True], ids=["projective", "affine"])
    @pytest.mark.parametrize("which", [0, 1], ids=["int64", "python-int"])
    def test_add(self, which, affine):
        primes, dtype = _edge_primes()[which]
        rng = random.Random(f"add:{which}")
        rows, expected = [], []
        for p in primes:
            for a, P, Q in _edge_cases(p, rng):
                if affine and Q is None:
                    continue
                for lam in _scales(P, p, rng):
                    mu = 1 if affine else rng.choice(_scales(Q, p, rng))
                    rows.append((p, a, *_scaled(P, lam, p), *_scaled(Q, mu, p)))
                    expected.append(_ec_add(P, Q, a, p))
        p, a, X1, Y1, Z1, X2, Y2, Z2 = self._lanes(rows, dtype)
        for col in (a, X1, Y1, Z1, X2, Y2) + (() if affine else (Z2,)):
            assert all(((p == q) & (col == q - 1)).any() for q in primes)
        out = elliptic._lane_add((X1, Y1, Z1), (X2, Y2, Z2), a, p, np.ones(len(p), bool), affine=affine)
        for k, (q, want) in enumerate(zip(p.tolist(), expected)):
            X3, Y3, Z3 = (int(c[k]) for c in out)
            assert all(0 <= c < q for c in (X3, Y3, Z3))
            assert _affine_of(X3, Y3, Z3, q) == want, (k, rows[k])

    @pytest.mark.parametrize("which", [0, 1], ids=["int64", "python-int"])
    def test_dbl(self, which):
        primes, dtype = _edge_primes()[which]
        rng = random.Random(f"dbl:{which}")
        rows, expected = [], []
        for p in primes:
            points = [P for _, P, _ in _edge_cases(p, rng)] + [(p - 1, 0), (rng.randrange(p), 0)]
            for a in (p - 1, rng.randrange(p)):
                for P in points:
                    for lam in _scales(P, p, rng):
                        rows.append((p, a, *_scaled(P, lam, p)))
                        expected.append(_ec_add(P, P, a, p))
        p, a, X, Y, Z = self._lanes(rows, dtype)
        out = elliptic._lane_dbl((X, Y, Z), a, p)
        for k, (q, want) in enumerate(zip(p.tolist(), expected)):
            X3, Y3, Z3 = (int(c[k]) for c in out)
            assert all(0 <= c < q for c in (X3, Y3, Z3))
            assert _affine_of(X3, Y3, Z3, q) == want, (k, rows[k])

    @pytest.mark.parametrize("which", [0, 1], ids=["int64", "python-int"])
    def test_xpow(self, which):
        primes, dtype = _edge_primes()[which]
        rng = random.Random(f"xpow:{which}")
        rows = [(p, a, b) for p in primes for a in (0, p - 1, rng.randrange(p)) for b in (0, p - 1, rng.randrange(p))]
        p, a, b = self._lanes(rows, dtype)
        got = np.stack(elliptic._lane_xpow(p, a, b), axis=1).tolist()
        assert got == [_xpow_scalar(*row) for row in rows]

    @pytest.mark.parametrize("which", [0, 1], ids=["int64", "python-int"])
    def test_xsq(self, which):
        # _lane_xpow's squaring step, whose c1 line reduces the kernel's
        # largest sum 2 c0 c1 + u na + v nb, u = 2 (c1 c2 mod p) and
        # v = c2^2 mod p, below 5(p - 1)^2: c0 = c1 = na = nb = p - 1 and
        # c2 = isqrt(p - 1) bring it within 4 sqrt(p) p of that bound
        primes, dtype = _edge_primes()[which]
        rng = random.Random(f"xsq:{which}")
        rows = []
        for p in primes:
            for c2 in (p - 1, math.isqrt(p - 1), rng.randrange(1, p)):
                for c1 in (c2, p - pow(c2, -1, p), p - 1):
                    for c0 in (p - 1, rng.randrange(p)):
                        for n in (p - 1, rng.randrange(p)):
                            rows.append((c0, c1, c2, n, n, p))
        top = dict.fromkeys(primes, 0)
        for c0, c1, c2, na, nb, p in rows:
            top[p] = max(top[p], 2 * c0 * c1 + 2 * (c1 * c2 % p) * na + (c2 * c2 % p) * nb)
        assert all(5 * (p - 1) ** 2 - 4 * math.isqrt(p) * p < v <= 5 * (p - 1) ** 2 for p, v in top.items())
        got = np.stack(elliptic._lane_xsq(*self._lanes(rows, dtype)), axis=1).tolist()
        assert got == [_polymulmod([c0, c1, c2], [c0, c1, c2], p - na, p - nb, p) for c0, c1, c2, na, nb, p in rows]

    @pytest.mark.parametrize("which", [0, 1], ids=["int64", "python-int"])
    def test_invert(self, which):
        primes, dtype = _edge_primes()[which]
        rng = random.Random(f"invert:{which}")
        lanes = [(p, f) for p in primes for f in (0, 1, p - 1, rng.randrange(1, p), rng.randrange(1, p))]
        p = np.array([q for q, _ in lanes], dtype=dtype)
        f = np.array([v for _, v in lanes], dtype=dtype)
        # 7 rows of nonzero residues, with p - 1 in a different row on each lane
        rows = [[q - 1 if i == k % 7 else rng.randrange(1, q) for k, (q, _) in enumerate(lanes)] for i in range(7)]
        Z = np.array(rows, dtype=dtype)
        inv = Z.copy()
        euler = elliptic._lane_invert(inv, p, f)
        assert euler.tolist() == [pow(v, (q - 1) // 2, q) for q, v in lanes]
        for k, (q, v) in enumerate(lanes):
            if v:
                assert [int(z) * int(i) % q for z, i in zip(Z[:, k], inv[:, k])] == [1] * 7


class TestCertificate:
    def test_rejects_a_wrong_trace(self):
        curve, p = CurveQ(2, 3), 1000003
        t = naive_ap(curve, p)
        _assert_certified(curve, p, t)
        for wrong in (t + 1, -t):
            with pytest.raises(AssertionError):
                _assert_certified(curve, p, wrong)


class TestParity:
    @pytest.mark.parametrize("curve", TEST_CURVES, ids=lambda c: c.label())
    def test_equals_naive_and_root_count_to_2e4(self, curve):
        good, _ = good_primes(20_000, curve)
        col = np.array(good, dtype=np.int64)
        parity = elliptic._lane_parity(col, np.remainder(curve.A, col), np.remainder(curve.B, col))
        assert parity.dtype == np.int64
        assert parity.tolist() == [a % 2 for a in naive_row(curve, good)]
        assert parity.tolist() == [int(naive_roots(curve, p) == 0) for p in good]

    def test_python_int_lanes(self):
        col = np.array(list(ABOVE_LIMIT), dtype=object)
        parity = elliptic._lane_parity(col, np.remainder(2, col), np.remainder(3, col))
        assert parity.tolist() == [t % 2 for t in ABOVE_LIMIT.values()] == [0, 0, 0]

    def test_first_point_settles_the_demo_pair(self, monkeypatch):
        # a wrong parity leaves most lanes with no trace to find, so they
        # would run all MAX_POINTS rounds and end in ap_naive
        good = [p for p in good_primes(120_000, *DEMO_PAIR)[0] if p > 100_000]
        first = []
        real = elliptic._lane_round

        def spy(p, a, b, h, rnd):
            t, resolved = real(p, a, b, h, rnd)
            first.extend(resolved[rnd == 0].tolist())
            return t, resolved

        monkeypatch.setattr(elliptic, "_lane_round", spy)
        _, settled = elliptic._lane_stream(list(DEMO_PAIR), good)
        assert len(first) == 2 * len(good) and sum(first) >= 0.95 * len(first)
        assert settled.all()

    def test_a_sampled_root_leaves_the_lane_open(self):
        # f(x) = 0 gives the point (0, 0) of no elliptic curve: such a lane
        # must neither raise nor settle; x^3 - x has three roots to land on,
        # and x is the sampler's hash (its "^ b" drops out at b = 0)
        good, _ = good_primes(300, CurveQ(-1, 0))
        p = np.repeat(np.array(good, dtype=np.int64), 16)
        rnd = np.tile(np.arange(16), len(good))
        a, b = np.remainder(-1, p), np.zeros_like(p)
        z = elliptic._splitmix(elliptic._splitmix(elliptic._splitmix(p.astype(np.uint64)) ^ a.astype(np.uint64)))
        x = (elliptic._splitmix(z + rnd.astype(np.uint64)) % p.astype(np.uint64)).astype(np.int64)
        root = (x * x * x - x) % p == 0
        assert root.sum() > 10
        _, resolved = elliptic._lane_round(p, a, b, elliptic._hasse_radius(p), rnd)
        assert not resolved[root].any() and resolved[~root].any()


class TestAgreement:
    @pytest.mark.parametrize("curve", TEST_CURVES, ids=lambda c: c.label())
    def test_equals_naive_on_every_good_prime_to_2e4(self, curve):
        good, _ = good_primes(20_000, curve)
        assert ap_stream([curve], good)[0].tolist() == naive_row(curve, good)

    @pytest.mark.parametrize("pair", STREAM_PAIRS, ids=lambda p: f"{p[0].label()} / {p[1].label()}")
    def test_pair_stream_equals_naive_on_every_good_prime_to_2e4(self, pair):
        good, _ = good_primes(20_000, *pair)
        assert ap_stream(list(pair), good).tolist() == [naive_row(c, good) for c in pair]

    def test_equals_naive_on_two_seeded_primes_above_1e6(self):
        for seed, curve in enumerate(SAMPLE_CURVES):
            primes = _seeded_primes(curve, 10**6, 2, seed)
            assert ap_stream([curve], primes)[0].tolist() == naive_row(curve, primes)

    @pytest.mark.parametrize("lo", [10**6, 10**7])
    def test_equals_bsgs_on_seeded_samples(self, lo, naive_calls):
        # ap_bsgs runs each prime on a lane of its own
        for seed, curve in enumerate(SAMPLE_CURVES):
            primes = _seeded_primes(curve, lo, 40, seed)
            lanes = ap_stream([curve], primes)[0].tolist()
            assert naive_calls == []
            for p, t in zip(primes, lanes):
                _assert_certified(curve, p, t)
            assert lanes == [ap_bsgs(curve, p) for p in primes]

    def test_values_are_python_ints(self):
        # the one-prime entry hands out Python ints, on int64 lanes and above them
        assert all(type(ap_bsgs(CurveQ(2, 3), p)) is int for p in [7, 1009, 10007, *ABOVE_LIMIT])

    @pytest.mark.parametrize(
        "curves, primes",
        [
            ([CurveQ(2, 3)], []),
            (list(TEST_CURVES), []),
            ([CurveQ(2, 3)], [7, 1009, 10007]),
            (list(STREAM_PAIRS[0]), [7, 1009, 10007]),
            ([CurveQ(2, 3)], list(ABOVE_LIMIT)),
        ],
        ids=["one-curve-no-primes", "five-curves-no-primes", "one-curve", "pair", "python-int-lanes"],
    )
    def test_returns_a_c_contiguous_int64_table(self, curves, primes):
        table = ap_stream(curves, primes)
        assert table.dtype == np.int64 and table.shape == (len(curves), len(primes))
        assert table.flags.c_contiguous


class TestInt64Limit:
    def test_resolves_primes_just_below_the_limit(self, naive_calls):
        # the kernel's largest sum, 5p^2 on the c1 line of _lane_xsq, comes
        # within 10^-6 of 2^63 here, so a sum one product larger would wrap
        primes = [p for p in range(LANE_MAX_PRIME - 1, LANE_MAX_PRIME - 200, -1) if is_prime(p)][:3]
        curve = CurveQ(2, 3)
        lanes = ap_stream([curve], primes)[0].tolist()
        assert naive_calls == []
        for p, t in zip(primes, lanes):
            _assert_certified(curve, p, t)
        assert lanes == [ap_bsgs(curve, p) for p in primes]

    def test_primes_above_the_limit_are_settled_in_the_kernel(self, monkeypatch, naive_calls):
        # the first primes at or above the limit, and the recorded ones far above it
        first = [p for p in range(LANE_MAX_PRIME, LANE_MAX_PRIME + 200) if is_prime(p)][:3]
        primes = first + list(ABOVE_LIMIT)
        rounds = []
        real = elliptic._lane_round
        monkeypatch.setattr(elliptic, "_lane_round", lambda p, *rest: rounds.append(p) or real(p, *rest))
        curve = CurveQ(2, 3)
        lanes = ap_stream([curve], primes)[0].tolist()
        assert rounds[0].dtype == object and rounds[0].tolist() == primes
        assert naive_calls == []
        assert lanes[len(first) :] == list(ABOVE_LIMIT.values())
        for p, t in zip(primes, lanes):
            _assert_certified(curve, p, t)

    def test_match_keys_fit_int64_at_every_batch_shape(self):
        # lane | x | row: x < 2^31 below LANE_MAX_PRIME, and a batch holds
        # LANE_CELLS // rows lanes (one when a lane alone is wider)
        widest = elliptic._rows(math.isqrt(4 * LANE_MAX_PRIME))
        for rows in range(2, widest + 1):
            lanes = max(1, elliptic.LANE_CELLS // rows)
            assert (lanes - 1).bit_length() + LANE_MAX_PRIME.bit_length() + rows.bit_length() <= 63

    def test_match_keys_wider_than_int64_raise(self):
        X = np.zeros((3, 2), np.int64)
        p = np.array([(1 << 61) + 1, 7])
        with pytest.raises(OverflowError, match="do not fit int64"):
            no, one = np.zeros(2, bool), np.ones(2, np.int64)
            elliptic._lane_match(X, X.copy(), X.copy(), X == 1, no, 1, 1, p, one, np.zeros(2, np.int64))

    @pytest.mark.parametrize("primes", [[2**64 + 13], [1009, 2**64 + 13]], ids=["alone", "with-one-below"])
    def test_primes_from_2_64_up_raise(self, primes):
        with pytest.raises(ValueError, match=r"p=18446744073709551629 is not below 2\^64"):
            ap_stream([CurveQ(2, 3)], primes)

    def test_one_prime_above_the_limit_puts_every_lane_on_python_ints(self, naive_calls):
        curve = CurveQ(2, 3)
        small = [p for p in good_primes(3000, curve)[0] if p > elliptic.BSGS_MIN_PRIME]
        above = ap_stream([curve], small + [3030000073])[0].tolist()
        assert above == ap_stream([curve], small)[0].tolist() + [43482]
        assert naive_calls == []


class TestTableShape:
    def test_fewest_rows_that_cover_never_falling(self):
        # every Hasse radius up to the int64 edge: the steps cover every
        # |k| <= H, with no more rows than the earlier rule s = isqrt(H) + 1,
        # and the rows never fall as the radius grows
        last = 0
        for h in range(math.isqrt(4 * LANE_MAX_PRIME) + 1):
            H = (h + 1) // 2
            s, K = elliptic._table_shape(h)
            rows = elliptic._rows(h)
            s_old = math.isqrt(H) + 1
            rows_old = s_old + 2 * max(0, -(-(H - s_old) // (2 * s_old + 1))) + 1
            assert K * (2 * s + 1) + s >= H and last <= rows <= rows_old
            last = rows


class TestBatching:
    def test_same_traces_whatever_the_batch(self, monkeypatch):
        curve = CurveQ(0, 1)
        good, _ = good_primes(30_000, curve)
        whole = ap_stream([curve], good)
        pair = [CurveQ(2, 3), CurveQ(1, 0)]
        pair_good, _ = good_primes(30_000, *pair)
        pair_whole = ap_stream(pair, pair_good)
        assert np.array_equal(pair_whole, np.vstack([ap_stream([c], pair_good) for c in pair]))
        # a few lanes per call: the tables have 14 to 38 rows here
        monkeypatch.setattr(elliptic, "LANE_CELLS", 300)
        assert np.array_equal(ap_stream([curve], good), whole)
        assert np.array_equal(ap_stream([curve], good[::-1]), whole[:, ::-1])
        assert np.array_equal(ap_stream(pair, pair_good), pair_whole)
        assert np.array_equal(ap_stream(pair, pair_good[::-1]), pair_whole[:, ::-1])

    def test_calls_are_full_but_the_last(self, monkeypatch):
        # primes whose tables all have the same rows: every call holds as
        # many lanes as fit the cell budget until the new lanes run out; the
        # calls after that hold the lanes still open, fewer each time
        pair = list(STREAM_PAIRS[0])
        rows = elliptic._rows(math.isqrt(4 * 8000))
        good = [p for p in good_primes(10_000, *pair)[0] if elliptic._rows(math.isqrt(4 * p)) == rows]
        assert len(good) > 150
        expected = np.vstack([ap_stream([c], good) for c in pair])
        lanes = []
        real = elliptic._lane_round

        def spy(p, a, b, h, rnd):
            assert elliptic._rows(int(h.max())) == rows
            lanes.append(len(p))
            return real(p, a, b, h, rnd)

        monkeypatch.setattr(elliptic, "_lane_round", spy)
        monkeypatch.setattr(elliptic, "LANE_CELLS", 600)
        assert np.array_equal(ap_stream(pair, good), expected)
        full = 600 // rows
        tail = next(k for k, n in enumerate(lanes) if n < full)
        assert tail > 10 and lanes[:tail] == [full] * tail
        assert all(n >= m for n, m in zip(lanes[tail:], lanes[tail + 1 :]))

    def test_calls_stay_within_the_cell_budget(self, monkeypatch):
        # the rows grow with floor(2 sqrt(p)) inside this slice: 15 rows up
        # to 118, 16 from 119 and 17 from 135.  Sized at its first lane
        # alone, a call's slice would reach lanes of 17 rows at 15 rows each;
        # it shrinks until its own widest interval fits
        curve = CurveQ(2, 3)
        good, _ = good_primes(6000, curve)
        bands = ((105, 118), (119, 134), (135, 150))
        groups = [[p for p in good if lo <= math.isqrt(4 * p) <= hi] for lo, hi in bands]
        primes = groups[0][:1] + groups[1] + groups[2]
        assert [{elliptic._rows(math.isqrt(4 * p)) for p in g} for g in groups] == [{15}, {16}, {17}]
        expected = ap_stream([curve], primes)
        budget = 16 * (1 + len(groups[1]))
        cells = []
        real = elliptic._lane_round

        def spy(p, a, b, h, rnd):
            cells.append(len(p) * elliptic._rows(int(h.max())))
            return real(p, a, b, h, rnd)

        monkeypatch.setattr(elliptic, "_lane_round", spy)
        monkeypatch.setattr(elliptic, "LANE_CELLS", budget)
        assert np.array_equal(ap_stream([curve], primes), expected)
        assert max(cells) <= budget

    def test_carried_lanes_equal_naive(self, monkeypatch):
        # as in TestFallback: with full 2-torsion and p < 34 some lanes stay
        # open, so later calls start with lanes carried from the one before
        monkeypatch.setattr(elliptic, "BSGS_MIN_PRIME", 3)
        monkeypatch.setattr(elliptic, "LANE_CELLS", 64)
        rounds = []
        real = elliptic._lane_round

        def spy(p, a, b, h, rnd):
            t, resolved = real(p, a, b, h, rnd)
            rounds.append((rnd.copy(), resolved))
            return t, resolved

        monkeypatch.setattr(elliptic, "_lane_round", spy)
        curve = CurveQ(-1, 0)
        good, _ = good_primes(200, curve)
        assert ap_stream([curve], good)[0].tolist() == naive_row(curve, good)
        # carried lanes come first, and some settle on a later round
        assert any(rnd[0] > 0 and rnd[-1] == 0 for rnd, _ in rounds)
        assert any((resolved & (rnd > 0)).any() for rnd, resolved in rounds)
        assert all((rnd[:-1] >= rnd[1:]).all() for rnd, _ in rounds)

    def test_compute_traces_uses_the_kernel(self, naive_calls, monkeypatch):
        curve = CurveQ(5, 7)
        good, _ = good_primes(20_000, curve)
        [traces] = compute_traces([curve], good)
        assert traces.dtype == np.int64 and np.array_equal(traces, ap_stream([curve], good)[0])
        # only the primes at or below BSGS_MIN_PRIME went to the fallback
        assert all(p <= elliptic.BSGS_MIN_PRIME for p in naive_calls)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_same_traces_whatever_the_segments(self, monkeypatch, recording_pool, k):
        pair = list(STREAM_PAIRS[1])
        good, _ = good_primes(20_000, *pair)
        monkeypatch.setattr(experiment, "SEGMENT_MIN_PRIMES", 100)
        segments = experiment._segments(good, k)
        assert len(segments) == k and sum(segments, []) == good
        traces = compute_traces(pair, good, threads=k)
        assert [t.tolist() for t in traces] == [naive_row(c, good) for c in pair]
        assert recording_pool == ([k] if k > 1 else [])

    def test_segments_split_the_work_evenly(self, monkeypatch):
        monkeypatch.setattr(experiment, "SEGMENT_MIN_PRIMES", 1000)
        good, _ = good_primes(200_000, *STREAM_PAIRS[0])
        segments = experiment._segments(good, 2)
        work = [sum(p**0.25 for p in s) for s in segments]
        # the cut is within one prime of the middle
        assert len(segments) == 2 and abs(work[0] - work[1]) < 2 * 200_000**0.25
        assert len(segments[0]) > len(segments[1])  # the larger primes cost more
        # never more segments than primes allow, and at least one
        assert len(experiment._segments(good[:2500], 8)) == 2
        assert experiment._segments([], 4) == [[]]


class TestResidues:
    # coefficients and discriminants beyond int64 next to ones that fit it:
    # each is reduced exactly, whatever the others are
    CURVES = (CurveQ(2, 3), CurveQ(10**6, 1), CurveQ(2**70 + 1, 3), CurveQ(5, -(3**45)))

    def test_good_mask_equals_python_remainders(self):
        col = np.array([p for p in range(5, 3000) if is_prime(p)], dtype=np.int64)
        mask = elliptic.good_mask(list(self.CURVES), col)
        assert mask.tolist() == [[6 * c.discriminant % p != 0 for p in col.tolist()] for c in self.CURVES]

    def test_stream_equals_naive(self):
        good, _ = good_primes(2000, *self.CURVES)
        table = ap_stream(list(self.CURVES), good)
        assert table.tolist() == [naive_row(c, good) for c in self.CURVES]


class TestFallback:
    def test_open_lanes_go_to_naive(self, monkeypatch, naive_calls):
        # y^2 = x^3 - x and its twists have full 2-torsion, so every point
        # order is at most (p + 1 + 2 sqrt(p)) / 2, which is <= 4 sqrt(p) for
        # p < 34: several t fit the Hasse interval, and those lanes stay
        # open through every round
        monkeypatch.setattr(elliptic, "BSGS_MIN_PRIME", 3)
        curve = CurveQ(-1, 0)
        good, _ = good_primes(200, curve)
        assert ap_stream([curve], good)[0].tolist() == naive_row(curve, good)
        assert 0 < len(naive_calls) < len(good)

    def test_bad_prime_raises(self):
        # 1009 divides the discriminant -16 * 27 * 1009^2
        with pytest.raises(ValueError, match="p=1009 is a bad prime"):
            ap_stream([CurveQ(0, 1009)], [1013, 1009])

    def test_composite_raises(self):
        with pytest.raises(ValueError, match="p=1001 is not prime"):
            ap_stream([CurveQ(0, 1)], [1009, 1001])


class TestPrimeCheck:
    @pytest.mark.parametrize("p", [25, 9, 1, 0, -7])
    @pytest.mark.parametrize("fn", [ap_naive, ap_bsgs], ids=["naive", "bsgs"])
    def test_scalar_paths_reject_non_primes(self, fn, p):
        with pytest.raises(ValueError, match=f"p={p} is not prime"):
            fn(CurveQ(0, 1), p)
