import math
import random

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from frobmatch.arith import (
    COLUMN_LIMIT,
    is_perfect_square,
    is_prime,
    isqrt_column,
    jacobi_symbol,
    log_integral,
    primes_in,
    squarefree_decompose,
    squarefree_part,
)


def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimes:
    def test_small_ranges(self):
        assert primes_in(10, 20) == [11, 13, 17, 19]
        assert primes_in(0, 1) == []
        assert len(primes_in(50, 100)) == 10  # by trial division below

    def test_against_trial_division(self):
        assert primes_in(50, 100) == [n for n in range(51, 101) if _is_prime_trial(n)]

    def test_segmented_path_matches_trial_division(self):
        lo, hi = (1 << 18) - 50, (1 << 18) + 2000
        assert primes_in(lo, hi) == [n for n in range(lo + 1, hi + 1) if _is_prime_trial(n)]

    def test_every_small_range(self):
        for hi in range(60):
            for lo in range(hi + 1):
                assert primes_in(lo, hi) == [n for n in range(lo + 1, hi + 1) if _is_prime_trial(n)]

    def test_segments_join_without_gaps(self):
        # three segments of the segmented sieve; the count is pi(800000) - pi(100000)
        primes = primes_in(100_000, 800_000)
        assert len(primes) == 63_951 - 9_592
        assert primes[0] == 100_003 and primes[-1] == 799_999
        assert all(type(p) is int for p in primes[:3])

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            primes_in(10, 5)
        with pytest.raises(ValueError):
            primes_in(-1, 5)

    def test_is_prime(self):
        assert [n for n in range(60) if is_prime(n)] == [
            n for n in range(60) if _is_prime_trial(n)
        ]
        assert is_prime(7919) and not is_prime(7917)


class TestJacobi:
    def test_examples(self):
        assert jacobi_symbol(1, 15) == 1
        assert jacobi_symbol(2, 7) == 1  # squares mod 7 are {1, 2, 4}
        assert jacobi_symbol(3, 9) == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            jacobi_symbol(2, 10)
        with pytest.raises(ValueError):
            jacobi_symbol(2, -3)
        with pytest.raises(ValueError):
            jacobi_symbol(2, 0)

    @given(
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6),
        st.integers(0, 10**4),
    )
    def test_multiplicative_in_numerator(self, a, b, k):
        n = 2 * k + 1
        assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)

    @given(st.integers(-10**6, 10**6), st.integers(0, 300), st.integers(0, 300))
    def test_multiplicative_in_denominator(self, a, k1, k2):
        n1, n2 = 2 * k1 + 1, 2 * k2 + 1
        assert jacobi_symbol(a, n1 * n2) == jacobi_symbol(a, n1) * jacobi_symbol(a, n2)

    @given(st.integers(-10**9, 10**9), st.integers(0, 10**4))
    def test_matches_sympy(self, a, k):
        n = 2 * k + 1
        assert jacobi_symbol(a, n) == sympy.jacobi_symbol(a, n)

    def test_quadratic_reciprocity(self):
        odd_primes = primes_in(2, 100)
        for p in odd_primes:
            for q in odd_primes:
                if p == q:
                    continue
                sign = (-1) ** ((p - 1) // 2 * ((q - 1) // 2))
                assert jacobi_symbol(p, q) * jacobi_symbol(q, p) == sign


def _squarefree_sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    for k in range(2, math.isqrt(limit) + 1):
        flags[k * k :: k * k] = bytearray(len(range(k * k, limit + 1, k * k)))
    return flags


class TestSquarefree:
    def test_examples(self):
        assert (squarefree_decompose(12).D, squarefree_decompose(12).m) == (3, 2)
        assert (squarefree_decompose(1).D, squarefree_decompose(1).m) == (1, 1)
        assert (squarefree_decompose(360).D, squarefree_decompose(360).m) == (10, 6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            squarefree_decompose(0)

    def test_roundtrip_exhaustive(self):
        squarefree = _squarefree_sieve(100_000)
        for n in range(1, 100_001):
            dec = squarefree_decompose(n)
            assert dec.D * dec.m * dec.m == n
            assert squarefree[dec.D]

    def test_perfect_square_examples(self):
        assert is_perfect_square(0)
        assert is_perfect_square(400)
        assert is_perfect_square(20 * 45)  # 900 = 30^2
        assert not is_perfect_square(20 * 16)

    def test_perfect_square_iff_squarefree_part_one(self):
        for n in range(1, 100_001):
            assert is_perfect_square(n) == (squarefree_decompose(n).D == 1)


def _squarefree_sympy(n: int) -> int:
    return math.prod(p for p, e in sympy.factorint(n).items() if e % 2)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class TestSquarefreeColumn:
    """The int64 column path of squarefree_part against the scalar path."""

    @given(st.lists(st.integers(1, 4 * 10**7), max_size=200))
    def test_equals_scalar_path(self, values):
        assert squarefree_part(_column(values)).tolist() == [squarefree_part(n) for n in values]

    def test_square_of_a_prime_above_the_cube_root(self):
        # 2437 is the first prime above the column's cube root, so each
        # m * 2437^2 keeps the cofactor 2437^2 once the primes up to the cube
        # root are out; 3 * Q^2 is the case a pass over q^2 alone would miss
        ms, q, q2 = [1, 3, 35, 2431], 2437, 2441
        values = [m * q * q for m in ms] + [q * q2, q * q, q, 1]
        cbrt = 2434
        assert cbrt**3 <= max(values) < (cbrt + 1) ** 3
        assert list(sympy.primerange(cbrt + 1, q2 + 1)) == [q, q2]
        assert squarefree_part(_column(values)).tolist() == ms + [q * q2, 1, q, 1]
        assert squarefree_part(_column(values)).tolist() == [squarefree_part(n) for n in values]

    def test_powers_of_two_up_to_2_61(self):
        # 2^k * m for every k that fits below COLUMN_LIMIT: the power of 2
        # leaves in one pass, and is kept in D exactly when k is odd
        ms = [1, 3, 9, 45, 1001, (1 << 20) + 7]
        values = [m << k for k in range(62) for m in ms if m << k < COLUMN_LIMIT]
        assert max(values).bit_length() == 62 and (1 << 61) in values
        assert squarefree_part(_column(values)).tolist() == [_squarefree_sympy(n) for n in values]

    def test_squares_and_neighbours_near_2_52(self):
        k = math.isqrt(1 << 52)
        values = [r * r + d for r in (k - 1, k, k + 1) for d in (-1, 0, 1)]
        assert squarefree_part(_column(values)).tolist() == [_squarefree_sympy(n) for n in values]

    def test_empty_column(self):
        out = squarefree_part(_column([]))
        assert out.dtype == np.int64 and out.size == 0

    def test_output_dtype(self):
        assert squarefree_part(_column([12, 7])).dtype == np.int64
        assert squarefree_part(np.array([12, 7], dtype=np.int32)).dtype == np.int64

    @pytest.mark.parametrize("values", [[0], [5, -3], [1, COLUMN_LIMIT]])
    def test_rejects_values_outside_the_guard(self, values):
        with pytest.raises(ValueError):
            squarefree_part(_column(values))

    def test_largest_value_below_the_guard(self):
        n = COLUMN_LIMIT - 1  # 3 * 715827883 * 2147483647
        assert squarefree_part(_column([n])).tolist() == [n]

    def test_rejects_non_integer_or_2d_columns(self):
        with pytest.raises(ValueError):
            squarefree_part(np.array([4.0]))
        with pytest.raises(ValueError):
            squarefree_part(_column([[4]]))


class TestIsqrtColumn:
    def test_near_float_precision_limits(self):
        values = [0, 1, 2, 3, 4]
        for e in (52, 53, 61):
            k = math.isqrt(1 << e)
            values += [r * r + d for r in range(k - 3, k + 4) for d in (-1, 0, 1)]
        values += [COLUMN_LIMIT - 1]
        assert isqrt_column(_column(values)).tolist() == [math.isqrt(n) for n in values]

    def test_rejects_values_outside_the_guard(self):
        with pytest.raises(ValueError):
            isqrt_column(_column([-1]))
        with pytest.raises(ValueError):
            isqrt_column(_column([COLUMN_LIMIT]))


def _li_simpson(x: float, n_panels: int = 20_000) -> float:
    # independent oracle: substitute t = e^u, giving the smooth integrand
    # e^u / u on [log 2, log x], then composite Simpson
    a, b = math.log(2.0), math.log(x)
    h = (b - a) / (2 * n_panels)
    f = lambda u: math.exp(u) / u
    total = f(a) + f(b)
    total += 4 * sum(f(a + (2 * i + 1) * h) for i in range(n_panels))
    total += 2 * sum(f(a + 2 * i * h) for i in range(1, n_panels))
    return total * h / 3


class TestLogIntegral:
    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            log_integral(2.0)
        with pytest.raises(ValueError):
            log_integral(1.5)

    @pytest.mark.parametrize("x", [10.0, 1e4, 1e6])
    def test_against_simpson_oracle(self, x):
        assert log_integral(x) == pytest.approx(_li_simpson(x), rel=1e-9)

    def test_frozen_values(self):
        # values computed with the Simpson oracle (and cross-checked against
        # mpmath's offset li)
        assert log_integral(10.0) == pytest.approx(5.12043572466981, rel=1e-9)
        assert log_integral(1e6) == pytest.approx(78626.5039956821, rel=1e-9)


def _li_sample() -> list[float]:
    rng = random.Random(20170)
    xs: list[float] = [rng.randint(3, 10**7) for _ in range(600)]
    xs += [rng.uniform(2.0, 100.0) for _ in range(200)]
    xs += [math.exp(rng.uniform(math.log(2.0), math.log(1e15))) for _ in range(200)]
    xs += [math.nextafter(2.0, 3.0), math.e]
    return [x for x in xs if x > 2]


class TestLogIntegralRounding:
    def test_correctly_rounded_against_mpmath(self):
        with mpmath.workprec(300):
            li2 = mpmath.li(2)
            wrong = [x for x in _li_sample() if log_integral(x) != float(mpmath.li(x) - li2)]
        assert wrong == []

    def test_benchmark_x_max_value(self):
        # the predicted column of residue.csv at x_max = 2*10^5 depends on
        # this exact float
        assert log_integral(200_000) == 18035.006958116883

    def test_numpy_scalars(self):
        assert log_integral(np.int64(200_000)) == log_integral(200_000)
        assert log_integral(np.float64(1e6)) == log_integral(1e6)

    @pytest.mark.parametrize("x", [2, 2.0, 1.5, -1.0, math.inf, math.nan])
    def test_rejects_x_outside_the_open_range(self, x):
        with pytest.raises(ValueError):
            log_integral(x)
