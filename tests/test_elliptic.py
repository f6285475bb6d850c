import os
import subprocess
import sys

import pytest

import frobmatch
from frobmatch import elliptic
from frobmatch.arith import primes_in
from frobmatch.elliptic import (
    BSGS_MIN_PRIME,
    CurveQ,
    ap_bsgs,
    ap_naive,
    count_points,
    quadratic_twist,
)
from frobmatch.frobenius import good_primes


def count_points_slow(curve: CurveQ, p: int) -> int:
    """Independent oracle: tabulate y^2 residues, scan x; no symbols."""
    sq = [0] * p
    for y in range(p):
        sq[y * y % p] += 1
    a, b = curve.A % p, curve.B % p
    return 1 + sum(sq[(x * x % p * x + a * x + b) % p] for x in range(p))


class TestCurveQ:
    def test_discriminant_and_bad_primes(self):
        e = CurveQ(0, 1)
        assert e.discriminant == -432
        assert {2, 3}.issubset(e.bad_primes)
        assert e.is_good(5) and not e.is_good(3)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            CurveQ(0, 0)
        with pytest.raises(ValueError):
            CurveQ(-3, 2)  # 4*(-27) + 27*4 = 0

    def test_bad_primes_divide_six_disc(self):
        e = CurveQ(2, 3)
        assert all((6 * e.discriminant) % p == 0 for p in e.bad_primes)

    def test_goodness_needs_no_factoring(self, monkeypatch):
        # 6*disc of A = 10^6 has ~21 digits: factoring it would sieve to ~10^10
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(elliptic, "factorize", refuse)
        e = CurveQ(10**6, 1)
        good, skipped = good_primes(1000, e)
        assert good == [p for p in primes_in(3, 1000) if (6 * e.discriminant) % p]
        assert all((6 * e.discriminant) % p == 0 for p in skipped if p > 3)
        assert skipped[:2] == [2, 3]


class TestApNaive:
    def test_examples(self):
        e = CurveQ(0, 1)
        assert ap_naive(e, 5) == 0
        assert ap_naive(e, 7) == -4
        assert count_points(e, 5) == 6
        assert count_points(e, 7) == 12

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            ap_naive(CurveQ(0, 1), 3)
        with pytest.raises(ValueError):
            ap_naive(CurveQ(0, 1), 2)

    def test_matches_enumeration(self):
        e = CurveQ(2, 3)
        for p in primes_in(3, 200):
            if e.is_good(p):
                assert count_points(e, p) == count_points_slow(e, p)

    def test_point_count_identity(self):
        e = CurveQ(5, 7)
        for p in primes_in(3, 1000):
            if e.is_good(p):
                assert count_points(e, p) + ap_naive(e, p) - p - 1 == 0

    def test_hasse_bound(self):
        for e in (CurveQ(0, 1), CurveQ(-4, 4)):
            for p in primes_in(3, 500):
                if e.is_good(p):
                    assert ap_naive(e, p) ** 2 <= 4 * p


class TestApBsgs:
    def test_falls_through_below_threshold(self):
        e = CurveQ(2, 3)
        p = 449
        assert p <= BSGS_MIN_PRIME
        assert ap_bsgs(e, p) == ap_naive(e, p)

    def test_hasse_at_1009(self):
        assert abs(ap_bsgs(CurveQ(0, 1), 1009)) <= 63  # 2*sqrt(1009) ~ 63.5

    @pytest.mark.parametrize("curve", [CurveQ(2, 3), CurveQ(0, 1), CurveQ(1, 0)])
    def test_agrees_with_naive(self, curve):
        for p in primes_in(BSGS_MIN_PRIME, 2500):
            if curve.is_good(p):
                assert ap_bsgs(curve, p) == ap_naive(curve, p)

    # the primes in (10^5, 10^5 + 5000] where a sampler drawing points on E
    # alone needed the quadratic twist to pin the group order down
    @pytest.mark.parametrize(
        "curve, p",
        [(CurveQ(0, 1), p) for p in (101281, 102121, 103231, 104347)]
        + [(CurveQ(1, 0), p) for p in (100801, 103393, 103969)],
    )
    def test_agrees_with_naive_where_twist_decides(self, curve, p):
        assert ap_bsgs(curve, p) == ap_naive(curve, p)

    def test_composite_modulus_raises(self):
        # in a child process, so a sampler that loops forever fails the test
        code = (
            "from frobmatch.elliptic import CurveQ, ap_bsgs\n"
            "try:\n    ap_bsgs(CurveQ(0, 1), 1001)\n"
            "except ValueError as e:\n    print('ValueError', e)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(frobmatch.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10, env=env
        )
        assert out.stdout.startswith("ValueError p=1001 is not prime")

    def test_deterministic(self):
        e = CurveQ(-4, 4)
        assert [ap_bsgs(e, 10007) for _ in range(3)] == [ap_bsgs(e, 10007)] * 3

    def test_supersingular_j1728(self):
        # classical: y^2 = x^3 + x is supersingular exactly at p = 3 mod 4
        e = CurveQ(1, 0)
        for p in (7, 11, 19):
            assert ap_naive(e, p) == 0
        for p in (5, 13, 1009):
            assert ap_bsgs(e, p) == ap_naive(e, p)


class TestTwist:
    def test_nonresidue_twist_flips_trace(self):
        e = CurveQ(2, 3)
        for p in primes_in(3, 500):
            if not e.is_good(p):
                continue
            d = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
            tw = quadratic_twist(e, d)
            assert p + 1 - count_points_slow(tw, p) == -(p + 1 - count_points_slow(e, p))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            quadratic_twist(CurveQ(2, 3), 0)
