import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobmatch.arith import jacobi_symbol, log_integral
from frobmatch.elliptic import CurveQ
from frobmatch.frobenius import good_primes, scan_pair
from frobmatch.sieve import (
    Multiset,
    build_prime_window,
    choose_z_grh,
    choose_z_uncond,
    curve_pair_multiset,
    main_term_assembly,
    prime_char_sum,
    prime_char_sum_by_classes,
    sieve_bound_v1,
    sieve_bound_v2,
    square_count_exact,
    theorem_bound_curves,
    uncond_growth_condition,
)
from conftest import naive_traces

E1 = CurveQ(2, 3)
E2 = CurveQ(5, 7)


class TestPrimeWindow:
    def test_examples(self):
        assert build_prime_window(10).primes == (7,)
        assert build_prime_window(20).primes == (11, 13, 17, 19)
        assert build_prime_window(4).primes == (3,)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            build_prime_window(2.5)

    def test_density_matches_pnt(self):
        for z in (10**3, 10**4, 10**5):
            w = build_prime_window(z)
            expected = z / (2 * math.log(z))
            assert abs(w.P - expected) <= 0.25 * expected


class TestMultiset:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Multiset((1, 0, 3))

    def test_curve_pair_elements(self, demo_traces_1e4):
        x = 10_000
        scan = demo_traces_1e4
        a = curve_pair_multiset(scan, x)
        assert len(a) == len(scan.records)
        for elem, rec in zip(a.elements, scan.records):
            assert elem == (4 * rec.p - rec.a_p**2) * (4 * rec.p - rec.b_p**2)
            assert (math.isqrt(elem) ** 2 == elem) == rec.matched
            assert elem <= 16 * x * x

    def test_identical_curves_all_squares(self):
        a = curve_pair_multiset(scan_pair(E1, E1, 500, naive_traces), 500)
        assert square_count_exact(a) == len(a)


class TestSquareCount:
    def test_examples(self):
        assert square_count_exact(Multiset((1, 4, 9))) == 3
        assert square_count_exact(Multiset((2, 3, 5))) == 0

    def test_random_against_scan(self):
        rng = random.Random(7)
        sample = tuple(rng.randrange(1, 10**6 + 1) for _ in range(1000))
        scan = sum(1 for e in sample if math.isqrt(e) ** 2 == e)
        assert square_count_exact(Multiset(sample)) == scan


class TestSieveV1:
    def test_singleton_main_term(self):
        rep = sieve_bound_v1(Multiset((1,)), build_prime_window(20))
        assert rep.term_main == 0.25
        assert rep.version == 1

    def test_all_squares_coprime_to_window(self):
        w = build_prime_window(20)  # primes 11, 13, 17, 19
        a = Multiset(tuple(k * k for k in range(1, 8)))  # coprime to the window
        rep = sieve_bound_v1(a, w)
        # every symbol is 1, so each ordered pair contributes |A|
        assert rep.term_char == pytest.approx(len(a) * (w.P - 1) / w.P)

    def test_rejects_oversized_elements(self):
        with pytest.raises(ValueError):
            sieve_bound_v1(Multiset((10**9,)), build_prime_window(20))  # e^4 < 1e9

    def test_double_loop_oracle(self):
        rng = random.Random(99)
        w = build_prime_window(60)  # P = 7, so e^P covers elements below 1096
        a = Multiset(tuple(rng.randrange(1, 400) for _ in range(150)))
        rep = sieve_bound_v1(a, w)
        char = 0.0
        for q1 in w.primes:
            for q2 in w.primes:
                if q1 == q2:
                    continue
                char += abs(sum(jacobi_symbol(n, q1 * q2) for n in a.elements))
        assert rep.term_char == pytest.approx(char / w.P**2)
        assert rep.bound_total == pytest.approx(len(a) / w.P + char / w.P**2)


class TestSieveV2:
    def test_singleton_square(self):
        rep = sieve_bound_v2(Multiset((49,)), build_prime_window(20))
        assert rep.exact_square_count == 1
        assert rep.bound_total >= 1

    def test_random_multisets_hold(self):
        rng = random.Random(2024)
        w = build_prime_window(50)
        for _ in range(30):
            a = Multiset(tuple(rng.randrange(1, 10**9 + 1) for _ in range(500)))
            rep = sieve_bound_v2(a, w)
            assert rep.exact_square_count <= rep.bound_total

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 10**7), min_size=1, max_size=80))
    def test_inequality_property(self, elems):
        rep = sieve_bound_v2(Multiset(tuple(elems)), build_prime_window(30))
        assert rep.exact_square_count <= rep.bound_total

    def test_square_heavy_multiset(self):
        # all elements divisible by window primes, all squares
        w = build_prime_window(12)  # primes 7, 11
        a = Multiset(tuple((7 * 11 * k) ** 2 for k in range(1, 30)))
        rep = sieve_bound_v2(a, w)
        assert rep.exact_square_count == 29
        assert rep.exact_square_count <= rep.bound_total

    def test_curve_multiset_end_to_end(self, demo_traces_1e4):
        a = curve_pair_multiset(demo_traces_1e4, 10_000)
        rep = sieve_bound_v2(a, build_prime_window(30))
        assert rep.exact_square_count <= rep.bound_total


class TestPrimeCharSum:
    def test_triangle_inequality(self):
        good, _ = good_primes(2000, E1, E2)
        val = prime_char_sum(scan_pair(E1, E2, 2000, naive_traces), 3, 5)
        assert abs(val) <= len(good)

    def test_identical_curves_nonnegative(self):
        val = prime_char_sum(scan_pair(E1, E1, 1000, naive_traces), 3, 5)
        assert val >= 0

    def test_cross_path_agreement(self):
        scan = scan_pair(E1, E2, 2000, naive_traces)
        direct = prime_char_sum(scan, 3, 5)
        classes = prime_char_sum_by_classes(scan, 3, 5)
        assert direct == classes

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            prime_char_sum(scan_pair(E1, E2, 100, naive_traces), 3, 3)


class TestParameterChoices:
    def test_grh_plugin_value(self):
        x = math.exp(30)
        assert choose_z_grh(x) == pytest.approx(math.e * 30 ** (-1 / 15), rel=1e-12)

    def test_grh_monotone(self):
        vals = [choose_z_grh(x) for x in (100, 10**4, 10**8, 10**12)]
        assert vals == sorted(vals)

    def test_grh_window_condition_kicks_in_late(self):
        # the window condition z > (log x)^1.1 fails at desk scale and holds
        # for astronomically large x
        assert choose_z_grh(1e10) < math.log(1e10) ** 1.1
        assert choose_z_grh(1e100) > math.log(1e100) ** 1.1

    def test_uncond_value(self):
        z = choose_z_uncond(10**6)
        lx = math.log(10**6)
        assert z == pytest.approx(lx ** (1 / 42) * math.log(lx) ** (-1 / 21), rel=1e-12)

    def test_uncond_growth(self):
        assert choose_z_uncond(10**9) > choose_z_uncond(10**6)

    def test_uncond_condition_with_small_constants(self):
        assert uncond_growth_condition(1e100, c2=0.5, c3=0.5)

    def test_rejects_small_x(self):
        for fn in (choose_z_grh, choose_z_uncond, lambda x: theorem_bound_curves(x, "grh")):
            with pytest.raises(ValueError):
                fn(50)


class TestBoundShapes:
    def test_values(self):
        x = 10**6
        assert theorem_bound_curves(x, "grh") == pytest.approx(
            x ** (29 / 30) * math.log(x) ** (1 / 15)
        )
        assert theorem_bound_curves(x, "uncond") == pytest.approx(
            x * math.log(math.log(x)) ** (22 / 21) / math.log(x) ** (43 / 42)
        )

    def test_monotone(self):
        for which in ("grh", "uncond"):
            vals = [theorem_bound_curves(10.0**k, which) for k in range(3, 10)]
            assert vals == sorted(vals)

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError):
            theorem_bound_curves(1e6, "sharp")


class TestMainTerm:
    def test_exact_composition(self):
        # triple sum at (3,5) is 8; coefficient is 225/294912
        expected = log_integral(1e4) * 225 * 8 / 294_912
        assert main_term_assembly(3, 5, 1e4) == pytest.approx(expected, rel=1e-12)

    def test_bounded_by_substituted_form(self):
        # triple sum <= (q1-1)(q2-1) collapses the coefficient denominator
        q1, q2 = 3, 5
        x = 1e4
        cap = log_integral(x) * q1**2 * q2**2 / ((q1**2 - 1) ** 2 * (q2**2 - 1) ** 2)
        val = main_term_assembly(q1, q2, x)
        assert 0 < val <= cap * (1 + 1e-12)
