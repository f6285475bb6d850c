"""The lane kernel `ap_stream` and its one-curve case `ap_lanes` against
`ap_naive` and a group-law certificate, its int64 limit and its Python-int
lanes above it, its batching and segments and its `ap_naive` fallback; and
the prime check of the one-prime entry points."""

import functools
import math
import random

import numpy as np
import pytest

from frobmatch import elliptic, experiment
from frobmatch.arith import is_prime
from frobmatch.elliptic import LANE_MAX_PRIME, CurveQ, ap_bsgs, ap_lanes, ap_naive, ap_stream
from frobmatch.experiment import compute_traces
from frobmatch.frobenius import good_primes
from frobmatch.verify import TEST_CURVES

SAMPLE_CURVES = (CurveQ(2, 3), CurveQ(0, 1), CurveQ(1, 0))  # the last two CM
# Two pairs of TEST_CURVES for the stream; the second has the CM curve y^2 = x^3 + 1.
STREAM_PAIRS = ((CurveQ(2, 3), CurveQ(5, 7)), (CurveQ(0, 1), CurveQ(-4, 4)))

# The first three primes at or above LANE_MAX_PRIME and their traces on
# CurveQ(2, 3), cross-checked with an independent scalar BSGS search
# (Cohen, Alg. 7.4.12).
ABOVE_LIMIT = {3030000073: 43482, 3030000097: 14542, 3030000121: 646}


@pytest.fixture
def naive_calls(monkeypatch):
    """The primes `ap_lanes` hands to its fallback `ap_naive`, in call order."""
    calls = []
    real = elliptic.ap_naive

    def spy(curve, p):
        calls.append(p)
        return real(curve, p)

    monkeypatch.setattr(elliptic, "ap_naive", spy)
    return calls


@functools.lru_cache(maxsize=None)
def _naive_to_2e4(curve):
    """{p: ap_naive(curve, p)} over the curve's good primes <= 2*10^4, computed once."""
    good, _ = good_primes(20_000, curve)
    return {p: ap_naive(curve, p) for p in good}


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


class TestCertificate:
    def test_rejects_a_wrong_trace(self):
        curve, p = CurveQ(2, 3), 1000003
        t = ap_naive(curve, p)
        _assert_certified(curve, p, t)
        for wrong in (t + 1, -t):
            with pytest.raises(AssertionError):
                _assert_certified(curve, p, wrong)


class TestAgreement:
    @pytest.mark.parametrize("curve", TEST_CURVES, ids=lambda c: c.label())
    def test_equals_naive_on_every_good_prime_to_2e4(self, curve):
        naive = _naive_to_2e4(curve)
        assert ap_lanes(curve, list(naive)) == list(naive.values())

    @pytest.mark.parametrize("pair", STREAM_PAIRS, ids=lambda p: f"{p[0].label()} / {p[1].label()}")
    def test_pair_stream_equals_naive_on_every_good_prime_to_2e4(self, pair):
        good, _ = good_primes(20_000, *pair)
        assert ap_stream(list(pair), good) == [[_naive_to_2e4(c)[p] for p in good] for c in pair]

    def test_equals_naive_on_two_seeded_primes_above_1e6(self):
        for seed, curve in enumerate(SAMPLE_CURVES):
            primes = _seeded_primes(curve, 10**6, 2, seed)
            assert ap_lanes(curve, primes) == [ap_naive(curve, p) for p in primes]

    @pytest.mark.parametrize("lo", [10**6, 10**7])
    def test_equals_bsgs_on_seeded_samples(self, lo, naive_calls):
        # ap_bsgs runs each prime on a lane of its own
        for seed, curve in enumerate(SAMPLE_CURVES):
            primes = _seeded_primes(curve, lo, 40, seed)
            lanes = ap_lanes(curve, primes)
            assert naive_calls == []
            for p, t in zip(primes, lanes):
                _assert_certified(curve, p, t)
            assert lanes == [ap_bsgs(curve, p) for p in primes]

    def test_values_are_python_ints(self):
        assert all(type(t) is int for t in ap_lanes(CurveQ(2, 3), [7, 1009, 10007]))
        assert all(type(t) is int for t in ap_lanes(CurveQ(2, 3), list(ABOVE_LIMIT)))


class TestInt64Limit:
    def test_resolves_primes_just_below_the_limit(self, naive_calls):
        # products of two residues come within 1% of 2^63 here, so one
        # unreduced product such as 2*Y*Z wraps and leaves the lane unresolved
        primes = [p for p in range(LANE_MAX_PRIME - 1, LANE_MAX_PRIME - 200, -1) if is_prime(p)][:3]
        curve = CurveQ(2, 3)
        lanes = ap_lanes(curve, primes)
        assert naive_calls == []
        for p, t in zip(primes, lanes):
            _assert_certified(curve, p, t)
        assert lanes == [ap_bsgs(curve, p) for p in primes]

    def test_primes_above_the_limit_are_settled_in_the_kernel(self, monkeypatch, naive_calls):
        primes = [p for p in range(LANE_MAX_PRIME, LANE_MAX_PRIME + 200) if is_prime(p)][:3]
        assert primes == list(ABOVE_LIMIT)
        rounds = []
        real = elliptic._lane_round
        monkeypatch.setattr(elliptic, "_lane_round", lambda p, *rest: rounds.append(p) or real(p, *rest))
        curve = CurveQ(2, 3)
        lanes = ap_lanes(curve, primes)
        assert rounds[0].dtype == object and rounds[0].tolist() == primes
        assert naive_calls == []
        assert lanes == list(ABOVE_LIMIT.values())
        for p, t in zip(primes, lanes):
            _assert_certified(curve, p, t)

    def test_match_keys_fit_int64_at_every_batch_shape(self):
        # lane | x | row: x < 2^32 below LANE_MAX_PRIME, and a batch holds
        # LANE_CELLS // rows lanes (one when a lane alone is wider)
        widest = elliptic._rows(math.isqrt(4 * LANE_MAX_PRIME))
        for rows in range(2, widest + 1):
            lanes = max(1, elliptic.LANE_CELLS // rows)
            assert (lanes - 1).bit_length() + LANE_MAX_PRIME.bit_length() + rows.bit_length() <= 63

    def test_match_keys_wider_than_int64_raise(self):
        X = np.zeros((3, 2), np.int64)
        p = np.array([(1 << 61) + 1, 7])
        with pytest.raises(OverflowError, match="do not fit int64"):
            elliptic._lane_match(X, X.copy(), X == 1, 1, 1, p, np.ones(2, np.int64))

    def test_one_prime_above_the_limit_puts_every_lane_on_python_ints(self, naive_calls):
        curve = CurveQ(2, 3)
        small = [p for p in good_primes(3000, curve)[0] if p > elliptic.BSGS_MIN_PRIME]
        assert ap_lanes(curve, small + [3030000073]) == ap_lanes(curve, small) + [43482]
        assert naive_calls == []


class TestBatching:
    def test_same_traces_whatever_the_batch(self, monkeypatch):
        curve = CurveQ(0, 1)
        good, _ = good_primes(30_000, curve)
        whole = ap_lanes(curve, good)
        pair = [CurveQ(2, 3), CurveQ(1, 0)]
        pair_good, _ = good_primes(30_000, *pair)
        pair_whole = ap_stream(pair, pair_good)
        assert pair_whole == [ap_lanes(c, pair_good) for c in pair]
        # a few lanes per call: the tables have 14 to 38 rows here
        monkeypatch.setattr(elliptic, "LANE_CELLS", 300)
        assert ap_lanes(curve, good) == whole
        assert ap_lanes(curve, good[::-1]) == whole[::-1]
        assert ap_stream(pair, pair_good) == pair_whole
        assert ap_stream(pair, pair_good[::-1]) == [row[::-1] for row in pair_whole]

    def test_calls_are_full_but_the_last(self, monkeypatch):
        # primes whose tables all have the same rows: every call holds as
        # many lanes as fit the cell budget until the new lanes run out; the
        # calls after that hold the lanes still open, fewer each time
        pair = list(STREAM_PAIRS[0])
        rows = elliptic._rows(math.isqrt(4 * 8000))
        good = [p for p in good_primes(10_000, *pair)[0] if elliptic._rows(math.isqrt(4 * p)) == rows]
        assert len(good) > 150
        expected = [ap_lanes(c, good) for c in pair]
        lanes = []
        real = elliptic._lane_round

        def spy(p, a, b, h, rnd):
            assert elliptic._rows(int(h.max())) == rows
            lanes.append(len(p))
            return real(p, a, b, h, rnd)

        monkeypatch.setattr(elliptic, "_lane_round", spy)
        monkeypatch.setattr(elliptic, "LANE_CELLS", 600)
        assert ap_stream(pair, good) == expected
        full = 600 // rows
        tail = next(k for k, n in enumerate(lanes) if n < full)
        assert tail > 10 and lanes[:tail] == [full] * tail
        assert all(n >= m for n, m in zip(lanes[tail:], lanes[tail + 1 :]))

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
        assert ap_lanes(curve, good) == [ap_naive(curve, p) for p in good]
        # carried lanes come first, and some settle on a later round
        assert any(rnd[0] > 0 and rnd[-1] == 0 for rnd, _ in rounds)
        assert any((resolved & (rnd > 0)).any() for rnd, resolved in rounds)
        assert all((rnd[:-1] >= rnd[1:]).all() for rnd, _ in rounds)

    def test_compute_traces_uses_the_kernel(self, naive_calls, monkeypatch):
        curve = CurveQ(5, 7)
        good, _ = good_primes(20_000, curve)
        [traces] = compute_traces([curve], good)
        assert traces.dtype == np.int64 and traces.tolist() == ap_lanes(curve, good)
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
        assert [t.tolist() for t in traces] == [[_naive_to_2e4(c)[p] for p in good] for c in pair]
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


class TestFallback:
    def test_open_lanes_go_to_naive(self, monkeypatch, naive_calls):
        # y^2 = x^3 - x and its twists have full 2-torsion, so every point
        # order is at most (p + 1 + 2 sqrt(p)) / 2, which is <= 4 sqrt(p) for
        # p < 34: several t fit the Hasse interval, and those lanes stay
        # open through every round
        monkeypatch.setattr(elliptic, "BSGS_MIN_PRIME", 3)
        curve = CurveQ(-1, 0)
        good, _ = good_primes(200, curve)
        assert ap_lanes(curve, good) == [ap_naive(curve, p) for p in good]
        assert 0 < len(naive_calls) < len(good)

    def test_bad_prime_raises(self):
        # 1009 divides the discriminant -16 * 27 * 1009^2
        with pytest.raises(ValueError, match="p=1009 is a bad prime"):
            ap_lanes(CurveQ(0, 1009), [1013, 1009])

    def test_composite_raises(self):
        with pytest.raises(ValueError, match="p=1001 is not prime"):
            ap_lanes(CurveQ(0, 1), [1009, 1001])


class TestPrimeCheck:
    @pytest.mark.parametrize("p", [25, 9, 1, 0, -7])
    @pytest.mark.parametrize("fn", [ap_naive, ap_bsgs], ids=["naive", "bsgs"])
    def test_scalar_paths_reject_non_primes(self, fn, p):
        with pytest.raises(ValueError, match=f"p={p} is not prime"):
            fn(CurveQ(0, 1), p)
