import math

import pytest

from frobmatch.arith import jacobi_symbol, primes_in
from frobmatch.charsum import (
    charsum_verification_rows,
    half_reduction,
    jacobi_sum,
    triple_sum,
    triple_sum_direct,
    triple_sum_factored,
    weil_sum_bruteforce,
    weil_sum_closed,
)

ODD_PRIMES_97 = [q for q in primes_in(2, 97) if q > 2]


class TestWeilSum:
    def test_examples(self):
        assert weil_sum_bruteforce(5, 1) == -1
        assert weil_sum_bruteforce(7, 1) == 1
        assert weil_sum_closed(5, 1) == -1
        assert weil_sum_closed(7, 1) == 1
        assert weil_sum_closed(13, 1) == -1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            weil_sum_bruteforce(9, 1)
        with pytest.raises(ValueError):
            weil_sum_bruteforce(7, 14)

    def test_closed_matches_brute_everywhere(self):
        for q in ODD_PRIMES_97:
            for d in range(1, q):
                assert weil_sum_bruteforce(q, d) == weil_sum_closed(q, d)

    def test_value_independent_of_d(self):
        for q in ODD_PRIMES_97:
            vals = {weil_sum_bruteforce(q, d) for d in range(1, q)}
            assert len(vals) == 1

    def test_containment(self):
        for q in (3, 5, 7, 11, 13):
            assert all(weil_sum_bruteforce(q, d) in (-1, 0, 1) for d in range(1, q))


class TestHalfReduction:
    def test_documented_mismatch_at_5_1(self):
        assert weil_sum_bruteforce(5, 1) == -1
        assert half_reduction(5, 1) == 0

    def test_report_records_both(self):
        rows = charsum_verification_rows(7)
        row51 = next(r for r in rows if r[0] == 5 and r[1] == 1)
        assert row51[2] == -1 and row51[5] == 0 and row51[6] == "false"
        assert all(r[4] == "true" for r in rows)


class TestJacobiSum:
    def test_examples(self):
        assert jacobi_sum(5) == -1
        assert jacobi_sum(7) == 1
        assert jacobi_sum(97) == -1

    def test_lemma_up_to_97(self):
        for q in ODD_PRIMES_97:
            assert jacobi_sum(q) == -jacobi_symbol(-1, q)


class TestTripleSum:
    def test_examples(self):
        assert triple_sum(3, 5) == 8
        assert triple_sum(5, 7) == 24

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            triple_sum(5, 5)
        with pytest.raises(ValueError):
            triple_sum(2, 7)

    def test_paths_agree_small_products(self):
        pairs = [(3, 5), (3, 7), (5, 7), (3, 11), (3, 13), (5, 11), (7, 11), (5, 13)]
        for q1, q2 in pairs:
            assert triple_sum_direct(q1, q2) == triple_sum_factored(q1, q2)

    @pytest.mark.parametrize("q1, q2", [(3, 5), (3, 7)])
    def test_direct_equals_literal_loop(self, q1, q2):
        n = q1 * q2
        literal = sum(
            jacobi_symbol((4 * d - s * s) * (4 * d - t * t), n)
            for d in range(1, n)
            if math.gcd(d, n) == 1
            for s in range(n)
            for t in range(n)
        )
        assert triple_sum_direct(q1, q2) == literal

    def test_bound_attained(self):
        for q1, q2 in ((3, 5), (3, 7), (5, 7), (7, 11)):
            assert triple_sum(q1, q2) == (q1 - 1) * (q2 - 1)
