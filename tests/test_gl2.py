import math
from fractions import Fraction

import pytest

from frobmatch.gl2 import (
    class_ratio,
    count_det_trace_bruteforce,
    count_det_trace_formula,
    count_det_trace_single,
    det_trace_histogram,
    order_H_formula,
    order_H_histogram,
    pair_class_count,
    verification_rows,
)

# the symbol-free value of class_ratio(5, 7, ...), all four symbols 0
MAIN_TERM_5_7 = Fraction(5**2 * 7**2, (5 - 1) * (5**2 - 1) ** 2 * (7 - 1) * (7**2 - 1) ** 2)


class TestSingleMatrixCounts:
    def test_formula_examples(self):
        assert count_det_trace_formula(3, 5, 1, 0) == 180
        assert count_det_trace_formula(3, 5, 1, 2) == 225  # t^2 = 4d kills both symbols

    def test_trace_sign_symmetry(self):
        for t in range(15):
            assert count_det_trace_formula(3, 5, 2, t) == count_det_trace_formula(3, 5, 2, -t)

    def test_rejects_nonunit_determinant(self):
        with pytest.raises(ValueError):
            count_det_trace_formula(3, 5, 5, 1)
        with pytest.raises(ValueError):
            count_det_trace_single(7, 7, 1)

    def test_bruteforce_example(self):
        assert count_det_trace_bruteforce(3, 1, 0) == 6
        assert count_det_trace_single(3, 1, 0) == 6

    def test_single_prime_exhaustive(self):
        for q in (3, 5, 7, 11, 13):
            for d in range(1, q):
                for t in range(q):
                    assert count_det_trace_single(q, d, t) == count_det_trace_bruteforce(q, d, t)

    def test_crt_multiplicativity(self):
        for d in range(1, 15):
            if math.gcd(d, 15) != 1:
                continue
            for t in range(15):
                assert count_det_trace_bruteforce(15, d, t) == count_det_trace_bruteforce(
                    3, d % 3, t % 3
                ) * count_det_trace_bruteforce(5, d % 5, t % 5)

    def test_rejects_oversized_or_bad_modulus(self):
        with pytest.raises(ValueError):
            count_det_trace_bruteforce(39, 1, 0)  # 39 = 3*13 > 35
        with pytest.raises(ValueError):
            count_det_trace_bruteforce(9, 1, 0)  # square factor
        with pytest.raises(ValueError):
            det_trace_histogram(101)


class TestGroupOrder:
    def test_formula_vs_histogram(self):
        assert order_H_formula(3, 5) == order_H_histogram(3, 5) == 66_355_200
        assert order_H_formula(3, 7) == order_H_histogram(3, 7)

    def test_epimorphism_identity(self):
        # |H| = |GL2(Z/15)|^2 / phi(15), with |GL2| enumerated
        hist = det_trace_histogram(15)
        assert sum(int(hist[d].sum()) for d in range(15) if math.gcd(d, 15) == 1) == 23_040
        assert order_H_formula(3, 5) == 23_040**2 // 8
        assert 23_040**2 % 8 == 0

    def test_det_histogram_uniform_over_units(self):
        hist = det_trace_histogram(15)
        sizes = {int(hist[d].sum()) for d in range(15) if math.gcd(d, 15) == 1}
        assert len(sizes) == 1

    def test_partition_identity(self):
        total = sum(
            pair_class_count(3, 5, d, s, t)
            for d in range(15)
            if math.gcd(d, 15) == 1
            for s in range(15)
            for t in range(15)
        )
        assert total == order_H_formula(3, 5)

    def test_pair_class_formula_vs_bruteforce(self):
        for d in (1, 2, 4):
            for s in (0, 3, 7):
                for t in (0, 1, 14):
                    assert pair_class_count(3, 5, d, s, t) == count_det_trace_bruteforce(
                        15, d, s
                    ) * count_det_trace_bruteforce(15, d, t)


class TestClassRatio:
    def test_ratios_sum_to_one(self):
        total = sum(
            class_ratio(3, 5, d, s, t)
            for d in range(15)
            if math.gcd(d, 15) == 1
            for s in range(15)
            for t in range(15)
        )
        assert total == Fraction(1)

    def test_symbol_free_cells_hit_exact_value(self):
        # s^2 = t^2 = 4d mod 35 at d=1, s=t=2: all four symbols vanish
        assert class_ratio(5, 7, 1, 2, 2) == MAIN_TERM_5_7

    def test_leading_behavior_sweep(self):
        q1, q2 = 5, 7
        main = MAIN_TERM_5_7
        z = 2 * max(q1, q2)
        worst = Fraction(0)
        for d in range(35):
            if math.gcd(d, 35) != 1:
                continue
            for s in range(35):
                for t in range(35):
                    dev = abs(class_ratio(q1, q2, d, s, t) - main)
                    worst = max(worst, dev)
        # the deviation never exceeds the main term itself; report the
        # empirical constant for the 1/z^7 comparison
        assert worst <= main
        print(f"max |ratio - main| at (5,7): {float(worst):.3e} -> C = {float(worst) * z**7:.1f}")


class TestVerificationReport:
    def test_all_rows_agree(self):
        rows = verification_rows()
        assert rows, "report should not be empty"
        assert all(r[7] == "true" for r in rows)
        # single-prime rows leave s empty; pair rows carry both primes
        assert any(r[1] == "" for r in rows)
        assert any(r[1] != "" for r in rows)
