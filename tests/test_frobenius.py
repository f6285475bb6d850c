import csv
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frobmatch.arith import log_integral, primes_in
from frobmatch.elliptic import BSGS_MIN_PRIME, CurveQ, ap_stream, good_mask, quadratic_twist
from frobmatch.frobenius import (
    CheboTable,
    FrobeniusFieldTag,
    PairScan,
    chebotarev_empirical,
    count_fixed_field,
    count_fixed_trace,
    count_joint_traces,
    MATCH_CSV_COLUMNS,
    frobenius_field,
    good_primes,
    product_is_square_check,
    scan_pair,
    write_match_csv,
)
from frobmatch.gl2 import class_ratio
from conftest import naive_ap, naive_traces

E1 = CurveQ(2, 3)
E2 = CurveQ(5, 7)


# int64 values, with the edges of the decimal formatter drawn often: 0,
# 10^k - 1 and 10^k of either sign, and values near 2^62 and the int64 ends
_INT64S = st.one_of(
    st.sampled_from(
        [s * (10**k + d) for k in range(1, 19) for d in (-1, 0) for s in (1, -1)]
        + [0, 2**62 - 1, 2**62, 2**62 + 1, -(2**62), 2**63 - 1, -(2**63)]
    ),
    st.integers(-(2**63), 2**63 - 1),
)


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
        scan = demo_traces_1e4
        for p, a, b in zip(*(c[:400].tolist() for c in (scan.p, scan.a_p, scan.b_p))):
            lhs = product_is_square_check(p, a, b)
            rhs = _squarefree_part_slow(4 * p - a * a) == _squarefree_part_slow(4 * p - b * b)
            assert lhs == rhs


class TestScanPair:
    def test_three_way_agreement(self, demo_traces_1e4):
        scan = demo_traces_1e4
        columns = (scan.p, scan.a_p, scan.b_p, scan.D1, scan.D2, scan.matched)
        for p, a, b, d1, d2, matched in zip(*(c.tolist() for c in columns)):
            assert matched == product_is_square_check(p, a, b) == (d1 == d2)

    def test_rejects_engine_outside_hasse(self):
        def beyond_hasse(curves, primes):
            return [[math.isqrt(4 * p) + 1 for p in primes] for _ in curves]

        first = good_primes(100, E1, E2)[0][0]
        with pytest.raises(ValueError, match=f"Hasse bound at p={first}:"):
            scan_pair(E1, E2, 100, beyond_hasse)

    @pytest.mark.parametrize("t", [1 << 31, -(1 << 31), 1 << 40, -(1 << 63), 1 << 64])
    def test_rejects_engine_traces_whose_square_overflows(self, t):
        def huge(curves, primes):
            return [[t for _ in primes] for _ in curves]

        with pytest.raises(ValueError, match="Hasse bound"):
            scan_pair(E1, E2, 100, huge)
        with pytest.raises(ValueError, match="Hasse bound"):
            count_fixed_field(E1, 3, 100, huge)

    def test_calls_its_engine_once_with_both_curves(self):
        calls = []

        def engine(curves, primes):
            calls.append((curves, primes))
            return naive_traces(curves, primes)

        scan = scan_pair(E1, E2, 500, engine)
        assert calls == [((E1, E2), scan.p.tolist())]

    @pytest.mark.parametrize(
        "engine, shape",
        [
            (lambda curves, primes: naive_traces(curves[:1], primes)[0], "({n},)"),
            (lambda curves, primes: naive_traces(curves, primes + [7]), "(2, {n1})"),
        ],
        ids=["one-row", "one-prime-too-many"],
    )
    def test_rejects_an_engine_table_of_the_wrong_shape(self, engine, shape):
        n = len(good_primes(100, E1, E2)[0])
        expected = re.escape(f"shape {shape.format(n=n, n1=n + 1)}, expected (2, {n})")
        with pytest.raises(ValueError, match=expected):
            scan_pair(E1, E2, 100, engine)

    def test_excluded_side_channel(self):
        scan = scan_pair(E1, E2, 100, naive_traces)
        assert set(scan.excluded) == {p for p in primes_in(0, 100) if p in E1.bad_primes | E2.bad_primes}
        assert len(scan.p) + len(scan.excluded) == len(primes_in(0, 100))

    def test_identical_curves_always_match(self):
        scan = scan_pair(E1, E1, 300, naive_traces)
        count = scan.match_count
        assert count == len(scan.p)
        good, _ = good_primes(300, E1)
        assert count == len(good)

    def test_twist_pair_matches_everywhere(self):
        # a twist changes traces only by sign, so 4p - a_p^2 is unchanged
        tw = quadratic_twist(E1, 2)
        scan = scan_pair(E1, tw, 1000, naive_traces)
        assert len(scan.p) and scan.matched.all()

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
            a, b = naive_ap(E1, p), naive_ap(E2, p)
            recount += _squarefree_part_slow(4 * p - a * a) == _squarefree_part_slow(
                4 * p - b * b
            )
        assert count == recount

    def test_monotone_in_x(self):
        counts = [scan_pair(E1, E2, x, naive_traces).match_count for x in (500, 1000, 2000)]
        assert counts == sorted(counts)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9)),
            min_size=1,
            max_size=3,
        ),
        st.integers(5, 2000),
    )
    @example([(10**6, 1), (-(10**9), 7)], 2000)
    def test_good_primes_equal_a_per_prime_split(self, coefficients, x):
        assume(all(4 * a**3 + 27 * b**2 != 0 for a, b in coefficients))
        curves = [CurveQ(a, b) for a, b in coefficients]
        primes = primes_in(0, x)
        good = [p for p in primes if p > 3 and all(c.is_good(p) for c in curves)]
        assert good_primes(x, *curves) == (good, [p for p in primes if p not in good])

    def test_good_primes_beyond_int64_discriminant(self):
        e = CurveQ(10**6, 1)
        assert abs(6 * e.discriminant) >= 1 << 63
        good, skipped = good_primes(2000, e)
        assert skipped == [p for p in primes_in(0, 2000) if p < 5 or not e.is_good(p)]
        assert all(type(p) is int for p in good + skipped)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_good_primes_at_the_int64_edge_of_6_disc(self, sign):
        # the last A with |6 disc| < 2^63 takes int64 remainders, the next
        # one Python ints; with either sign of disc, alone and together
        big = lambda a: abs(6 * CurveQ(sign * a, 1).discriminant) >= 1 << 63
        a = round(((1 << 63) / 384) ** (1 / 3))
        while big(a):
            a -= 1
        while not big(a):
            a += 1
        below, above = CurveQ(sign * (a - 1), 1), CurveQ(sign * a, 1)
        primes = primes_in(0, 3000)
        for curves in ([below], [above], [below, above]):
            good = [p for p in primes if p > 3 and all(c.is_good(p) for c in curves)]
            assert good_primes(3000, *curves) == (good, [p for p in primes if p not in good])
        assert len(good_primes(3000, below, above)[1]) > 2  # some p >= 5 is bad
        # the trace engine's lanes read the same mask, on int64 and object columns
        pair = [below, above]
        by_curve = [[c.is_good(p) for p in primes] for c in pair]
        for col in (np.array(primes), np.array(primes, dtype=object)):
            assert good_mask(pair, col).tolist() == by_curve
        lanes = [p for p in good_primes(3000, *pair)[0] if p > BSGS_MIN_PRIME][:4]
        assert np.array_equal(ap_stream(pair, lanes), naive_traces(pair, lanes))
        bad = max(p for p in primes_in(0, 400_000) if not above.is_good(p))
        with pytest.raises(ValueError, match="bad prime"):
            ap_stream(pair, [bad])

    def test_rejects_tiny_x(self):
        with pytest.raises(ValueError):
            scan_pair(E1, E2, 4)


class TestCounters:
    @pytest.mark.parametrize("t", [1 << 31, -(1 << 31)])
    def test_fixed_trace_rejects_a_trace_of_size_2_31(self, t):
        def huge(curves, primes):
            return np.full((len(curves), len(primes)), t, np.int64)

        with pytest.raises(ValueError, match="Hasse bound"):
            count_fixed_trace(E1, 0, 100, huge)

    def test_fixed_trace_hasse_empty(self):
        assert count_fixed_trace(E1, 300, 2000, naive_traces) == 0  # 300^2 > 8000

    def test_fixed_trace_supersingular_count(self):
        # y^2 = x^3 + 1 has CM by Q(sqrt(-3)): supersingular exactly at
        # p = 2 mod 3; enumerated independently
        assert count_fixed_trace(CurveQ(0, 1), 0, 100, naive_traces) == 12

    def test_fixed_trace_recount(self):
        x = 1500
        good, _ = good_primes(x, E1)
        expected = sum(1 for p in good if naive_ap(E1, p) == 1)
        assert count_fixed_trace(E1, 1, x, naive_traces) == expected

    def test_fixed_field_partition(self):
        x = 1000
        good, _ = good_primes(x, E1)
        tags = {frobenius_field(E1, p, naive_ap(E1, p)).D for p in good}
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
        expected = sum(1 for p in good if naive_ap(E1, p) == 0 and naive_ap(E2, p) == 0)
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
        assert total == len(good_primes(3000, E1, E2)[0])

    def test_nonunit_columns_empty(self, table):
        # good primes > q1q2 are coprime to it; only p in {3, 5} could land
        # in a non-unit column, and those are bad for the demo pair anyway
        for d in range(15):
            if math.gcd(d, 15) != 1:
                assert sum(map(sum, table.counts[d])) == 0

    def test_column_marginal(self, table):
        good, _ = good_primes(3000, E1, E2)
        for d in (1, 2, 7):
            assert sum(map(sum, table.counts[d])) == sum(1 for p in good if p % 15 == d)

    def test_cells_equal_a_loop(self, table):
        good, _ = good_primes(3000, E1, E2)
        expected = [[[0] * 15 for _ in range(15)] for _ in range(15)]
        for p in good:
            expected[p % 15][naive_ap(E1, p) % 15][naive_ap(E2, p) % 15] += 1
        assert table.counts == expected

    def test_cells_are_the_unit_grid(self, table):
        n = table.modulus
        units = [d for d in range(n) if math.gcd(d, n) == 1]
        grid = [(d, s, t) for d in units for s in range(n) for t in range(n)]
        cells = list(table.cells())
        assert [c[:3] for c in cells] == grid
        assert len(grid) == len(units) * n * n == 8 * 15 * 15
        assert [c[3] for c in cells] == [table.counts[d][s][t] for d, s, t in grid]

    @pytest.mark.parametrize("q1, q2", [(3, 5), (3, 7), (5, 7)])
    def test_predictions_equal_a_class_ratio_loop(self, q1, q2):
        n = q1 * q2
        empty = CheboTable(q1, q2, 3000, [[[0] * n for _ in range(n)] for _ in range(n)])
        li_x = log_integral(empty.x)
        expected = [float(class_ratio(q1, q2, d, s, t)) * li_x for d, s, t, _ in empty.cells()]
        assert empty.predictions() == expected


class TestMatchCsv:
    def test_bytes_equal_csv_writer(self, tmp_path):
        scan = scan_pair(E1, E2, 3000, naive_traces)
        assert scan.a_p.min() < 0 and scan.b_p.min() < 0 and 0 < scan.match_count < len(scan.p)
        path = tmp_path / "m.csv"
        write_match_csv(scan, path)
        columns = (scan.p, scan.a_p, scan.b_p, scan.D1, scan.D2)
        with open(tmp_path / "w.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(MATCH_CSV_COLUMNS)
            for *row, m in zip(*(c.tolist() for c in columns), scan.matched.tolist()):
                w.writerow(row + ["true" if m else "false"])
        assert path.read_bytes() == (tmp_path / "w.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(*[_INT64S] * 5, st.booleans()), min_size=1, max_size=30),
        st.integers(0, 9000),
    )
    @example([(-1, 0, 9, 10, 10, True), (2**62, -(2**62) + 1, 99, -100, 7, False)], 4097)
    def test_bytes_equal_csv_writer_on_any_int64_columns(self, rows, n):
        # `rows` repeated to n rows, so blocks of 4096 fill and split; the
        # flag copies D1 into D2, so both matched values occur
        rows = (rows * (n // len(rows) + 1))[:n]
        cols = np.array([r[:5] for r in rows], dtype=np.int64).reshape(-1, 5).T.copy()
        cols[4] = np.where([r[5] for r in rows], cols[3], cols[4])
        scan = PairScan(5, *cols, ())
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(MATCH_CSV_COLUMNS)
        for *row, m in zip(*(c.tolist() for c in cols), scan.matched.tolist()):
            w.writerow(row + ["true" if m else "false"])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.csv")
            write_match_csv(scan, path)
            with open(path, "rb") as fh:
                assert fh.read() == expected.getvalue().encode("ascii")

    def test_empty_scan_is_the_header(self, tmp_path):
        scan = scan_pair(E1, E2, 3000, naive_traces)
        columns = (c[:0] for c in (scan.p, scan.a_p, scan.b_p, scan.D1, scan.D2))
        write_match_csv(PairScan(5, *columns, ()), tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == b"p,a_p,b_p,D1,D2,matched\r\n"

    def test_golden_and_deterministic(self, tmp_path):
        scan = scan_pair(E1, E2, 200, naive_traces)
        path1, path2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_match_csv(scan, path1)
        write_match_csv(scan, path2)
        data = path1.read_bytes()
        assert data == path2.read_bytes()
        lines = data.decode().splitlines()
        assert lines[0] == "p,a_p,b_p,D1,D2,matched"
        first = [int(c[0]) for c in (scan.p, scan.a_p, scan.b_p, scan.D1, scan.D2)]
        assert lines[1] == ",".join(map(str, first)) + (
            ",true" if first[3] == first[4] else ",false"
        )
        assert len(lines) == len(scan.p) + 1
