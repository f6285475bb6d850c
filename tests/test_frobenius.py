import math

import pytest

from frobmatch.arith import primes_in
from frobmatch.elliptic import CurveQ, ap_naive, quadratic_twist
from frobmatch.frobenius import (
    CheboTable,
    FrobeniusFieldTag,
    chebotarev_deviation,
    chebotarev_empirical,
    count_fixed_field,
    count_fixed_trace,
    count_joint_traces,
    frobenius_field,
    good_primes,
    product_is_square_check,
    scan_pair,
    write_match_csv,
)
from conftest import naive_traces

E1 = CurveQ(2, 3)
E2 = CurveQ(5, 7)


def _squarefree_part_slow(n: int) -> int:
    # independent oracle: strip the largest square divisor
    for k in range(math.isqrt(n), 0, -1):
        if n % (k * k) == 0:
            return n // (k * k)
    raise AssertionError


class TestFieldTag:
    def test_supersingular_gives_p(self):
        # a_p = 0 at p=5 for y^2 = x^3 + 1, so 4p = 2^2 * 5
        assert frobenius_field(CurveQ(0, 1), 5).D == 5

    def test_example_p7(self):
        assert frobenius_field(CurveQ(0, 1), 7).D == 3  # 4*7 - 16 = 12

    def test_rejects_non_squarefree_tag(self):
        with pytest.raises(ValueError):
            FrobeniusFieldTag(12)
        with pytest.raises(ValueError):
            FrobeniusFieldTag(0)


class TestProductSquareCheck:
    def test_examples(self):
        assert product_is_square_check(7, -4, -4)
        assert not product_is_square_check(5, 0, 2)  # 20*16 = 320
        assert product_is_square_check(13, 2, -2)

    def test_rejects_hasse_violation(self):
        with pytest.raises(ValueError):
            product_is_square_check(5, 5, 0)

    def test_equals_squarefree_comparison(self, demo_traces_1e4):
        for r in demo_traces_1e4.records[:400]:
            p, a, b = r.p, r.a_p, r.b_p
            lhs = product_is_square_check(p, a, b)
            rhs = _squarefree_part_slow(4 * p - a * a) == _squarefree_part_slow(4 * p - b * b)
            assert lhs == rhs


class TestScanPair:
    def test_three_way_agreement(self, demo_traces_1e4):
        for r in demo_traces_1e4.records:
            assert r.matched == product_is_square_check(r.p, r.a_p, r.b_p) == (r.D1 == r.D2)

    def test_excluded_side_channel(self):
        scan = scan_pair(E1, E2, 100, naive_traces)
        assert set(scan.excluded) == {p for p in primes_in(0, 100) if p in E1.bad_primes | E2.bad_primes}
        assert len(scan.records) + len(scan.excluded) == len(primes_in(0, 100))

    def test_identical_curves_always_match(self):
        scan = scan_pair(E1, E1, 300, naive_traces)
        count = scan.match_count
        assert count == len(scan.records)
        good, _ = good_primes(300, E1)
        assert count == len(good)

    def test_twist_pair_matches_everywhere(self):
        # a twist changes traces only by sign, so 4p - a_p^2 is unchanged
        tw = quadratic_twist(E1, 2)
        scan = scan_pair(E1, tw, 1000, naive_traces)
        assert scan.records and all(r.matched for r in scan.records)

    def test_minus_one_twist_invariance(self):
        # the -1 twist (A, -B) has the same discriminant, so the same primes
        # are counted, and traces change at most in sign
        tw = quadratic_twist(E1, -1)
        assert tw.bad_primes == E1.bad_primes
        c1 = scan_pair(E1, E2, 2000, naive_traces).match_count
        c2 = scan_pair(tw, E2, 2000, naive_traces).match_count
        assert c1 == c2

    def test_independent_recount(self):
        # recount with ap_naive and the square-stripping oracle, sharing no
        # code with the scan
        x = 2000
        count = scan_pair(E1, E2, x, naive_traces).match_count
        recount = 0
        for p in primes_in(0, x):
            if p in E1.bad_primes or p in E2.bad_primes:
                continue
            a, b = ap_naive(E1, p), ap_naive(E2, p)
            recount += _squarefree_part_slow(4 * p - a * a) == _squarefree_part_slow(
                4 * p - b * b
            )
        assert count == recount

    def test_monotone_in_x(self):
        counts = [scan_pair(E1, E2, x, naive_traces).match_count for x in (500, 1000, 2000)]
        assert counts == sorted(counts)

    def test_rejects_tiny_x(self):
        with pytest.raises(ValueError):
            scan_pair(E1, E2, 4)


class TestCounters:
    def test_fixed_trace_hasse_empty(self):
        assert count_fixed_trace(E1, 300, 2000, naive_traces) == 0  # 300^2 > 8000

    def test_fixed_trace_supersingular_count(self):
        # y^2 = x^3 + 1 has CM by Q(sqrt(-3)): supersingular exactly at
        # p = 2 mod 3; enumerated independently
        assert count_fixed_trace(CurveQ(0, 1), 0, 100, naive_traces) == 12

    def test_fixed_trace_recount(self):
        x = 1500
        good, _ = good_primes(x, E1)
        expected = sum(1 for p in good if ap_naive(E1, p) == 1)
        assert count_fixed_trace(E1, 1, x, naive_traces) == expected

    def test_fixed_field_partition(self):
        x = 1000
        good, _ = good_primes(x, E1)
        tags = {frobenius_field(E1, p, ap_naive(E1, p)).D for p in good}
        total = sum(count_fixed_field(E1, d, x, naive_traces) for d in tags)
        assert total == len(good)

    def test_fixed_field_includes_p7(self):
        assert count_fixed_field(CurveQ(0, 1), 3, 100, naive_traces) >= 1

    def test_fixed_field_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            count_fixed_field(E1, 12, 100)

    def test_joint_traces(self):
        scan = scan_pair(E1, E2, 2000, naive_traces)
        assert count_joint_traces(scan, 300, 0) == 0
        joint = count_joint_traces(scan, 0, 0)
        assert joint <= scan.match_count

    def test_joint_traces_recount(self):
        x = 1500
        good, _ = good_primes(x, E1, E2)
        expected = sum(1 for p in good if ap_naive(E1, p) == 0 and ap_naive(E2, p) == 0)
        assert count_joint_traces(scan_pair(E1, E2, x, naive_traces), 0, 0) == expected


@pytest.fixture(scope="module")
def table() -> CheboTable:
    return chebotarev_empirical(scan_pair(E1, E2, 3000, naive_traces), 3, 5)


class TestChebotarev:

    def test_rejects_bad_moduli(self):
        scan = scan_pair(E1, E2, 100, naive_traces)
        with pytest.raises(ValueError):
            chebotarev_empirical(scan, 3, 3)
        with pytest.raises(ValueError):
            chebotarev_empirical(scan, 2, 5)

    def test_total_partition(self, table):
        n = table.modulus
        total = sum(
            table.counts[d][s][t] for d in range(n) for s in range(n) for t in range(n)
        )
        assert total == table.n_good

    def test_nonunit_columns_empty(self, table):
        # good primes > q1q2 are coprime to it; only p in {3, 5} could land
        # in a non-unit column, and those are bad for the demo pair anyway
        for d in range(15):
            if math.gcd(d, 15) != 1:
                assert table.column_total(d) == 0

    def test_column_marginal(self, table):
        good, _ = good_primes(3000, E1, E2)
        for d in (1, 2, 7):
            assert table.column_total(d) == sum(1 for p in good if p % 15 == d)

    def test_deviation_report_runs(self, table):
        dev, cell = chebotarev_deviation(table)
        assert dev >= 0
        assert len(cell) == 3


class TestMatchCsv:
    def test_golden_and_deterministic(self, tmp_path):
        scan = scan_pair(E1, E2, 200, naive_traces)
        path1, path2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_match_csv(scan.records, path1)
        write_match_csv(scan.records, path2)
        data = path1.read_bytes()
        assert data == path2.read_bytes()
        lines = data.decode().splitlines()
        assert lines[0] == "p,a_p,b_p,D1,D2,matched"
        first = scan.records[0]
        assert lines[1] == (
            f"{first.p},{first.a_p},{first.b_p},{first.D1},{first.D2},"
            f"{'true' if first.matched else 'false'}"
        )
        assert len(lines) == len(scan.records) + 1
