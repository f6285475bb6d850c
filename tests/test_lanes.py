"""The lane kernel `ap_lanes` against `ap_naive` / `ap_bsgs`, its int64 limit,
its batching and its scalar fallback; and the prime check of the scalar paths."""

import random

import pytest

from frobmatch import elliptic
from frobmatch.arith import is_prime
from frobmatch.elliptic import LANE_MAX_PRIME, CurveQ, ap_bsgs, ap_lanes, ap_naive
from frobmatch.experiment import compute_traces
from frobmatch.frobenius import good_primes
from frobmatch.verify import TEST_CURVES


@pytest.fixture
def scalar_calls(monkeypatch):
    """The primes `ap_lanes` hands to the scalar `ap_bsgs`, in call order."""
    calls = []
    real = elliptic.ap_bsgs

    def spy(curve, p):
        calls.append(p)
        return real(curve, p)

    monkeypatch.setattr(elliptic, "ap_bsgs", spy)
    return calls


def _seeded_primes(curve, lo, n, seed):
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        p = rng.randrange(lo, 2 * lo)
        if is_prime(p) and curve.is_good(p):
            out.add(p)
    return sorted(out)


class TestAgreement:
    @pytest.mark.parametrize("curve", TEST_CURVES, ids=lambda c: c.label())
    def test_equals_naive_on_every_good_prime_to_2e4(self, curve):
        good, _ = good_primes(20_000, curve)
        assert ap_lanes(curve, good) == [ap_naive(curve, p) for p in good]

    @pytest.mark.parametrize("lo", [10**6, 10**7])
    def test_equals_bsgs_on_seeded_samples(self, lo, scalar_calls):
        for seed, curve in enumerate((CurveQ(2, 3), CurveQ(0, 1), CurveQ(1, 0))):
            primes = _seeded_primes(curve, lo, 40, seed)
            lanes = ap_lanes(curve, primes)
            assert scalar_calls == []
            assert lanes == [ap_bsgs(curve, p) for p in primes]

    def test_values_are_python_ints(self):
        assert all(type(t) is int for t in ap_lanes(CurveQ(2, 3), [7, 1009, 10007]))


class TestInt64Limit:
    def test_resolves_primes_just_below_the_limit(self, scalar_calls):
        # products of two residues come within 1% of 2^63 here, so one
        # unreduced product such as 2*Y*Z wraps and leaves the lane unresolved
        primes = [p for p in range(LANE_MAX_PRIME - 1, LANE_MAX_PRIME - 200, -1) if is_prime(p)][:3]
        curve = CurveQ(2, 3)
        lanes = ap_lanes(curve, primes)
        assert scalar_calls == []
        assert lanes == [ap_bsgs(curve, p) for p in primes]

    def test_prime_above_the_limit_takes_the_scalar_path(self, scalar_calls):
        p = next(q for q in range(LANE_MAX_PRIME, LANE_MAX_PRIME + 200) if is_prime(q))
        curve = CurveQ(2, 3)
        [t] = ap_lanes(curve, [p])
        assert scalar_calls == [p]
        assert t * t <= 4 * p


class TestBatching:
    def test_same_traces_whatever_the_batch(self, monkeypatch):
        curve = CurveQ(0, 1)
        good, _ = good_primes(30_000, curve)
        whole = ap_lanes(curve, good)
        monkeypatch.setattr(elliptic, "LANE_BATCH", 37)
        assert ap_lanes(curve, good) == whole
        assert ap_lanes(curve, good[::-1]) == whole[::-1]

    def test_compute_traces_uses_the_kernel(self, scalar_calls):
        curve = CurveQ(5, 7)
        good, _ = good_primes(20_000, curve)
        traces = compute_traces(curve, good, work_unit=700)
        assert traces == dict(zip(good, ap_lanes(curve, good)))
        # only the primes at or below BSGS_MIN_PRIME went to the scalar path
        assert all(p <= elliptic.BSGS_MIN_PRIME for p in scalar_calls)


class TestFallback:
    def test_open_lanes_go_to_bsgs(self, monkeypatch, scalar_calls):
        # y^2 = x^3 - x and its twists have full 2-torsion, so every point
        # order is at most (p + 1 + 2 sqrt(p)) / 2, which is <= 4 sqrt(p) for
        # p < 34: several t fit the Hasse interval, and those lanes stay
        # open through every round
        monkeypatch.setattr(elliptic, "BSGS_MIN_PRIME", 3)
        curve = CurveQ(-1, 0)
        good, _ = good_primes(200, curve)
        assert ap_lanes(curve, good) == [ap_naive(curve, p) for p in good]
        assert 0 < len(scalar_calls) < len(good)

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
