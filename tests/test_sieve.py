import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobmatch.arith import is_prime, jacobi_symbol, primes_in
from frobmatch.elliptic import CurveQ
from frobmatch.frobenius import PairScan, good_primes, scan_pair
from frobmatch.sieve import (
    _GRAM_BLOCK,
    Multiset,
    _char_sums_over_pairs,
    _legendre_terms,
    SievePrimeSet,
    build_prime_window,
    choose_z_grh,
    choose_z_uncond,
    curve_pair_multiset,
    prime_char_sum,
    prime_char_sum_by_classes,
    sieve_bound_v1,
    sieve_bound_v2,
    square_count_exact,
    theorem_bound_curves,
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

    def test_prime_set_refuses_no_primes(self):
        with pytest.raises(ValueError):
            SievePrimeSet(10.0, ())

    @pytest.mark.parametrize("z", [3, 3.5, 3.99])
    def test_odd_primes_only(self, z):
        # (z/2, z] holds 2 for z < 4; the window drops it
        assert build_prime_window(z).primes == (3,)

    @pytest.mark.parametrize(
        "z",
        [
            *range(3, 40),
            97,
            100,
            2999,
            3.5,
            3.99,
            30.5,
            100.7,
            *(round(random.Random(k).uniform(3, 10**4), 3) for k in range(12)),
        ],
    )
    def test_is_the_odd_primes_of_the_half_open_interval(self, z):
        # the window needs no z/2 < q <= z filter after its prime sieve
        expected = tuple(q for q in primes_in(2, int(z)) if z / 2 < q <= z)
        assert build_prime_window(z).primes == expected

    def test_density_matches_pnt(self):
        for z in (10**3, 10**4, 10**5):
            w = build_prime_window(z)
            expected = z / (2 * math.log(z))
            assert abs(w.P - expected) <= 0.25 * expected


def _synthetic_scan(x: int) -> PairScan:
    """Three primes up to the largest prime <= x, with traces inside the
    Hasse bound; the D columns are not read by the multiset."""
    top = next(n for n in range(x, 0, -1) if is_prime(n))
    p = np.array([5, 7, top], dtype=np.int64)
    a, b = np.array([1, -3, 0]), np.array([2, 5, 1])
    return PairScan(x, p, a, b, np.ones(3, np.int64), np.ones(3, np.int64), ())


class TestMultiset:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Multiset((1, 0, 3))
        with pytest.raises(ValueError):
            Multiset(np.array([4, -1], dtype=np.int64))
        with pytest.raises(ValueError):
            Multiset(np.ones((2, 2), dtype=np.int64))

    def test_int64_column_is_used_as_it_is(self):
        col = np.array([1, 4, 9], dtype=np.int64)
        assert Multiset(col).elements is col

    def test_uint64_range_is_an_object_column(self):
        # np.asarray alone would store 2^63 as uint64
        a = Multiset((3, 2**63))
        assert a.elements.dtype == object
        assert a.elements.tolist() == [3, 2**63]
        assert all(type(e) is int for e in a.elements)
        assert Multiset((3, 2**63 - 1)).elements.dtype == np.int64

    @pytest.mark.parametrize(
        "x, dtype", [(8 * 10**8, object), (75 * 10**7, np.int64)], ids=["object", "int64"]
    )
    def test_pair_products_near_the_int64_limit(self, x, dtype):
        scan = _synthetic_scan(x)
        a = curve_pair_multiset(scan, x)
        assert a.elements.dtype == dtype
        exact = [
            (4 * p - s * s) * (4 * p - t * t)
            for p, s, t in zip(scan.p.tolist(), scan.a_p.tolist(), scan.b_p.tolist())
        ]
        assert a.elements.tolist() == exact
        assert (max(exact) >= 2**63) == (dtype is object)
        # the guard squares x as a Python int, also when x is an int64
        assert curve_pair_multiset(scan, np.int64(x)).elements.dtype == dtype

    def test_curve_pair_elements(self, demo_traces_1e4):
        x = 10_000
        scan = demo_traces_1e4
        a = curve_pair_multiset(scan, x)
        assert len(a) == len(scan.p)
        columns = (scan.p, scan.a_p, scan.b_p, scan.matched)
        assert a.elements.dtype == np.int64
        for elem, (p, a_p, b_p, matched) in zip(a.elements.tolist(), zip(*(c.tolist() for c in columns))):
            assert elem == (4 * p - a_p**2) * (4 * p - b_p**2)
            assert (math.isqrt(elem) ** 2 == elem) == matched
            assert elem <= 16 * x * x
        with pytest.raises(ValueError, match="the scan stops at x=10000"):
            curve_pair_multiset(scan, x + 1)

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


class TestWindowOfThree:
    """z in [3, 4): the window {3}, P = 1, no pairs, so term_char is 0."""

    def test_v1(self):
        rep = sieve_bound_v1(Multiset((1, 2, 2)), build_prime_window(3.5))  # e^1 > 2
        assert (rep.P, rep.term_main, rep.term_char, rep.bound_total) == (1, 3.0, 0.0, 3.0)

    def test_v2(self):
        rep = sieve_bound_v2(Multiset((1, 2, 3, 9, 12)), build_prime_window(3.5))
        assert rep.P == 1 and rep.exact_square_count == 2
        assert (rep.term_char, rep.term_linear, rep.term_quadratic) == (0.0, 6.0, 3.0)
        assert rep.bound_total == 5.0 + 0.0 + 6.0 + 3.0


def _literal_terms(a: Multiset, w: SievePrimeSet) -> tuple[float, dict]:
    """(v1 term_char, v2 report fields) from a literal jacobi_symbol loop over
    unordered window pairs and omega counted by divisibility, with the float
    expressions of sieve_bound_v1/v2."""
    qs, p_count, elements = w.primes, w.P, a.elements.tolist()
    sums = [
        sum(jacobi_symbol(e, q1 * q2) for e in elements)
        for i, q1 in enumerate(qs)
        for q2 in qs[i + 1 :]
    ]
    omega = [sum(1 for q in qs if e % q == 0) for e in elements]
    v1_char = 2.0 * sum(abs(s) for s in sums) / p_count**2
    v2 = {
        "exact_square_count": sum(1 for e in elements if math.isqrt(e) ** 2 == e),
        "term_char": float(max((abs(s) for s in sums), default=0)),
        "term_linear": 2.0 * sum(omega) / p_count,
        "term_quadratic": sum(k * k for k in omega) / p_count**2,
    }
    v2["bound_total"] = (
        len(a) / p_count + v2["term_char"] + v2["term_linear"] + v2["term_quadratic"]
    )
    return v1_char, v2


def _v2_fields(rep) -> dict:
    return {
        k: getattr(rep, k)
        for k in ("exact_square_count", "term_char", "term_linear", "term_quadratic", "bound_total")
    }


def _mixed_multiset(w: SievePrimeSet, cap: int, seed: int, n: int = 96) -> Multiset:
    """Elements in [1, cap], in turn: multiples of a window prime, perfect
    squares, squares of multiples of a window prime, uniform draws; then cap."""
    rng = random.Random(seed)
    root = math.isqrt(cap)
    elems = []
    for k in range(n):
        q = rng.choice(w.primes)
        kind = k % 4
        if kind == 0 and q <= cap:
            elems.append(q * rng.randrange(1, cap // q + 1))
        elif kind == 1:
            elems.append(rng.randrange(1, root + 1) ** 2)
        elif kind == 2 and q <= root:
            elems.append((q * rng.randrange(1, root // q + 1)) ** 2)
        else:
            elems.append(rng.randrange(1, cap + 1))
    return Multiset(tuple(elems) + (cap,))


class TestLegendreMatrixExact:
    """Every term from the Legendre matrix equals the literal jacobi_symbol
    pair loop exactly (==, no tolerance)."""

    @pytest.mark.parametrize("z", [12, 30, 100, 300])
    @pytest.mark.parametrize(
        "cap", [2**63 - 1, 2**63, 2**80], ids=["int64", "object-edge", "object"]
    )
    def test_v2_terms(self, z, cap):
        w = build_prime_window(z)
        a = _mixed_multiset(w, cap, seed=z)
        assert (max(a.elements) >= 2**63) == (cap > 2**63 - 1)
        assert (a.elements.dtype == np.int64) == (cap < 2**63)
        _, expected = _literal_terms(a, w)
        assert _v2_fields(sieve_bound_v2(a, w)) == expected

    @pytest.mark.parametrize("z", [12, 30, 100, 300, 600])
    def test_v1_term_char(self, z):
        # v1 needs max(A) <= e^P; at z = 600 (P = 47) that admits elements
        # above 2^63, the object path
        w = build_prime_window(z)
        a = _mixed_multiset(w, math.floor(math.exp(w.P)), seed=z)
        assert (max(a.elements) >= 2**63) == (z == 600)
        v1_char, _ = _literal_terms(a, w)
        rep = sieve_bound_v1(a, w)
        assert rep.term_char == v1_char
        assert rep.bound_total == len(a) / w.P + v1_char

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(1, 10**6),
                st.integers(1, 2**70),
                st.integers(1, 2**35).map(lambda k: k * k),
            ),
            max_size=25,
        ),
        st.sampled_from([3.5, 12, 30, 100]),
    )
    def test_property(self, elems, z):
        a, w = Multiset(tuple(elems)), build_prime_window(z)
        v1_char, expected = _literal_terms(a, w)
        assert _v2_fields(sieve_bound_v2(a, w)) == expected
        if not elems or max(elems) <= math.exp(w.P):
            assert sieve_bound_v1(a, w).term_char == v1_char

    @pytest.mark.parametrize("z", [12, 30, 100])
    def test_int64_elements_just_below_2_63(self, z):
        # every element in [2^63 - 10^6, 2^63): the residues' v // q * q
        # comes nearest int64's top here; a multiple of each window prime
        # and 2^63 - 1 are among them
        w, rng = build_prime_window(z), random.Random(z)
        lo = 2**63 - 10**6
        elems = [rng.randrange(lo, 2**63) for _ in range(150)]
        elems += [(2**63 - 1) // q * q for q in w.primes] + [2**63 - 1, lo]
        a = Multiset(tuple(elems))
        assert a.elements.dtype == np.int64 and a.elements.min() >= lo
        _, expected = _literal_terms(a, w)
        assert _v2_fields(sieve_bound_v2(a, w)) == expected
        sums, omega = _legendre_terms(a, w)
        assert sums == _char_sums_over_pairs(a, w)
        assert omega.tolist() == [sum(1 for q in w.primes if e % q == 0) for e in elems]

    def test_spans_gram_blocks(self):
        w = build_prime_window(30)
        a = _mixed_multiset(w, 10**12, seed=5, n=2 * _GRAM_BLOCK + 7)
        _, expected = _literal_terms(a, w)
        assert _v2_fields(sieve_bound_v2(a, w)) == expected

    def test_demo_multiset_z100(self, demo_traces_1e4):
        a = curve_pair_multiset(demo_traces_1e4, 10_000)
        w = build_prime_window(100)
        _, expected = _literal_terms(a, w)
        assert _v2_fields(sieve_bound_v2(a, w)) == expected


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
