"""Cache, experiment orchestration, SVG, verification gates, and the CLI."""

import contextlib
import csv
import functools
import io
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobmatch
from frobmatch import arith, cli, experiment, gl2, verify
from frobmatch.arith import is_prime, log_integral
from frobmatch.cache import cache_path, read_trace_cache, write_trace_cache
from frobmatch.config import parse_config
from frobmatch.elliptic import CurveQ
from frobmatch.experiment import (
    compute_traces,
    growth_series,
    run_experiment,
    write_residue_csv,
)
from frobmatch.frobenius import (
    PairScan,
    chebotarev_empirical,
    count_joint_traces,
    good_primes,
    scan_pair,
)
from frobmatch.sieve import curve_pair_multiset
from frobmatch.svgplot import render_loglog_svg
from conftest import naive_ap, naive_row, naive_traces

E1 = CurveQ(2, 3)
E2 = CurveQ(5, 7)


def _config_text(x_max, checkpoints, threads, cache_dir=None):
    lines = [
        "[curve1]",
        "A = 2",
        "B = 3",
        "[curve2]",
        "A = 5",
        "B = 7",
        "[experiment]",
        f"x_max = {x_max}",
        f"x_checkpoints = {checkpoints}",
        "z_policy = fixed:20",
        f"threads = {threads}",
    ]
    if cache_dir:
        lines.append(f"cache_dir = {cache_dir}")
    return "\n".join(lines) + "\n"


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_public_names_resolve():
    assert [n for n in frobmatch.__all__ if not hasattr(frobmatch, n)] == []


def _raw_cache(path, header: bytes, pairs) -> None:
    """A cache file written byte by byte: `header`, then (p, a) as little-endian int64."""
    body = np.array(pairs, dtype="<i8").reshape(-1, 2).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + body)


def _header(curve, n, version=2):
    return f"#frobmatch-traces {version} A={curve.A} B={curve.B} n={n}\n".encode()


def _rows(columns) -> list[tuple[int, int]]:
    """The (p, a_p) rows of a pair of int64 columns of one length."""
    p, a = columns
    assert p.dtype == a.dtype == np.int64 and p.shape == a.shape and p.ndim == 1
    return list(zip(p.tolist(), a.tolist()))


def _columns(rows) -> tuple[np.ndarray, np.ndarray]:
    """(p, a_p) int64 columns of `rows`, ascending in p."""
    pairs = np.array(sorted(rows), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0].copy(), pairs[:, 1].copy()


class TestCache:
    def test_roundtrip(self, tmp_path):
        path = cache_path(str(tmp_path), E1)
        rows = [(p, naive_ap(E1, p)) for p in (7, 13, 17)]
        write_trace_cache(path, E1, *_columns(rows))
        assert _rows(read_trace_cache(path, E1)) == rows

    def test_roundtrip_empty_and_negative(self, tmp_path):
        path = cache_path(str(tmp_path), E1)
        write_trace_cache(path, E1, *_columns([]))
        assert _rows(read_trace_cache(path, E1)) == []
        with open(path, "rb") as fh:
            assert fh.read() == _header(E1, 0)
        good, _ = good_primes(200, E1)
        rows = list(zip(good, naive_row(E1, good)))
        assert min(a for _, a in rows) < 0
        write_trace_cache(path, E1, *_columns(rows))
        p, a = read_trace_cache(path, E1)
        assert _rows((p, a)) == rows
        assert p.flags.c_contiguous and a.flags.c_contiguous

    def test_file_layout(self, tmp_path):
        path = cache_path(str(tmp_path), E1)
        assert os.path.basename(path) == f"traces_A{E1.A}_B{E1.B}.i64"
        write_trace_cache(path, E1, *_columns([(13, -4), (7, 3)]))
        with open(path, "rb") as fh:
            data = fh.read()
        head = _header(E1, 2)
        assert data[: len(head)] == head and len(data) == len(head) + 32
        assert np.frombuffer(data[len(head) :], dtype="<i8").tolist() == [7, 3, 13, -4]

    def test_header_mismatch_is_a_miss(self, tmp_path):
        path = cache_path(str(tmp_path), E1)
        write_trace_cache(path, E1, *_columns([(7, naive_ap(E1, 7))]))
        assert _rows(read_trace_cache(path, E2)) == []

    def test_corrupt_file_is_a_miss(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(f"#curve A={E1.A} B={E1.B}\n7\tnot-a-number\n")
        assert _rows(read_trace_cache(str(path), E1)) == []

    def test_out_of_order_rows_are_a_miss(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(f"#curve A={E1.A} B={E1.B}\n13\t2\n7\t0\n")
        assert _rows(read_trace_cache(str(path), E1)) == []

    @pytest.mark.parametrize(
        "header",
        [
            _header(E1, 1, version=1),
            _header(E1, 1, version=3),
            _header(E2, 1),
            _header(E1, 1).replace(b"n=1", b"n=01"),
            _header(E1, 1).replace(b"n=1", b"n=+1"),
            _header(E1, 1).replace(b"n=1", b"n=1 "),
            _header(E1, 1)[:-1],
            b"#frobmatch-traces 2 A=2 B=3\n",
            f"#curve A={E1.A} B={E1.B}\n".encode(),  # the text format's header
            b"",
        ],
    )
    def test_wrong_header_is_a_miss(self, tmp_path, header):
        path = tmp_path / "c.i64"
        _raw_cache(path, _header(E1, 1), [7, 2])
        assert _rows(read_trace_cache(str(path), E1)) == [(7, 2)]
        _raw_cache(path, header, [7, 2])
        assert _rows(read_trace_cache(str(path), E1)) == []

    @pytest.mark.parametrize("n, extra", [(2, b""), (1, b"\0"), (1, b"\0" * 17), (0, b"\n"), (3, b"")])
    def test_body_of_the_wrong_length_is_a_miss(self, tmp_path, n, extra):
        path = tmp_path / "c.i64"
        _raw_cache(path, _header(E1, n), [])
        with open(path, "ab") as fh:
            fh.write(np.array([7, 2], dtype="<i8").tobytes() + extra)
        assert _rows(read_trace_cache(str(path), E1)) == []

    def test_huge_n_is_a_miss(self, tmp_path):
        path = tmp_path / "c.i64"
        _raw_cache(path, _header(E1, 10**19), [7, 2])
        assert _rows(read_trace_cache(str(path), E1)) == []

    @pytest.mark.parametrize(
        "pairs",
        [
            [13, 2, 7, 0],  # descending
            [7, 2, 7, 2],  # repeated
            [3, 0, 7, 2],  # p < 5
            [-7, 0],
            [7, 2, 1 << 61, 0],  # p >= 2^61
            [7, 2, (1 << 61) + 1, 1],
            [7, 6],  # a^2 > 4p
            [7, -6],
            [(1 << 60) + 1, 1 << 32],  # |a| >= 2^31, and a^2 wraps to 0 in int64
            [(1 << 60) + 1, 1 << 31],
            [(1 << 60) + 1, -(1 << 31)],
            [(1 << 60) + 1, -(1 << 63)],
        ],
    )
    def test_invalid_rows_are_a_miss(self, tmp_path, pairs):
        path = tmp_path / "c.i64"
        _raw_cache(path, _header(E1, len(pairs) // 2), pairs)
        assert _rows(read_trace_cache(str(path), E1)) == []

    def test_largest_valid_rows_load(self, tmp_path):
        # the reader checks order and ranges, not primality
        p, a = (1 << 61) - 1, (1 << 31) - 1
        path = tmp_path / "c.i64"
        _raw_cache(path, _header(E1, 2), [5, -4, p, -a])
        assert _rows(read_trace_cache(str(path), E1)) == [(5, -4), (p, -a)]

    def test_missing_file_is_a_miss(self, tmp_path):
        assert _rows(read_trace_cache(str(tmp_path / "nope.i64"), E1)) == []
        assert _rows(read_trace_cache(str(tmp_path), E1)) == []

    def test_overlapping_writers_each_land_whole(self, tmp_path):
        # a second writer runs to completion while the first is mid-call
        path = cache_path(str(tmp_path), E1)
        first = [(p, naive_ap(E1, p)) for p in (7, 13, 17)]
        second = first[:1]
        p, a = _columns(first)

        class Interrupting:
            def __array__(self, dtype=None, copy=None):
                write_trace_cache(path, E1, *_columns(second))
                assert _rows(read_trace_cache(path, E1)) == second
                return a

        write_trace_cache(path, E1, p, Interrupting())
        assert _rows(read_trace_cache(path, E1)) == first
        assert [f.name for f in tmp_path.iterdir()] == [os.path.basename(cache_path(str(tmp_path), E1))]


def _traces(curve, primes) -> np.ndarray:
    return naive_traces([curve], primes)[0]


class TestComputeTraces:
    def test_pool_matches_inline(self, monkeypatch):
        good, _ = good_primes(4000, E1, E2)
        inline = compute_traces([E1, E2], good, threads=1)
        monkeypatch.setattr(experiment, "SEGMENT_MIN_PRIMES", 100)
        pooled = compute_traces([E1, E2], good, threads=2)
        assert inline.dtype == pooled.dtype == np.int64
        assert inline.shape == pooled.shape == (2, len(good))
        assert np.array_equal(inline, pooled)
        assert np.array_equal(inline, [_traces(E1, good), _traces(E2, good)])

    def test_pool_is_capped_at_the_number_of_blocks(self, monkeypatch, recording_pool):
        # one pool per call, with a worker per segment: at most `threads`
        # segments of at least SEGMENT_MIN_PRIMES primes each
        monkeypatch.setattr(experiment, "SEGMENT_MIN_PRIMES", 50)
        good, _ = good_primes(2000, E1)
        segments = len(good) // 50
        assert segments > 2
        [traces] = compute_traces([E1], good, threads=100_000)
        assert traces.tolist() == naive_row(E1, good)
        compute_traces([E1], good, threads=2)
        assert recording_pool == [segments, 2]

    def test_cache_reuse_skips_work(self):
        good, _ = good_primes(1000, E1)
        [full] = compute_traces([E1], good)
        # poison a fake cache entry to prove cached values are trusted as-is
        poisoned = full.copy()
        poisoned[0] = 1
        [again] = compute_traces([E1], good, cached=[(np.array(good), poisoned)])
        assert again[0] == 1
        assert np.array_equal(again[1:], full[1:])

    def test_cached_rows_are_looked_up_by_prime(self, monkeypatch):
        # cached columns that skip some primes and hold others beyond them
        streams = []
        real = experiment.ap_stream
        monkeypatch.setattr(experiment, "ap_stream", lambda c, p: streams.append(p) or real(c, p))
        good, _ = good_primes(2000, E1)
        full = _traces(E1, good)
        keep = np.arange(len(good)) % 3 != 1
        cached = (np.array(good)[keep], full[keep])
        [traces] = compute_traces([E1], good[:200], cached=[cached])
        assert np.array_equal(traces, full[:200])
        assert streams == [[p for p, k in zip(good[:200], keep) if not k]]

    def test_a_fully_cached_curve_stays_out_of_the_stream(self, monkeypatch):
        streams = []
        real = experiment.ap_stream
        monkeypatch.setattr(experiment, "ap_stream", lambda c, p: streams.append((c, p)) or real(c, p))
        good, _ = good_primes(1000, E1, E2)
        p = np.array(good)
        [full1] = compute_traces([E1], good)
        poisoned = full1.copy()
        poisoned[0] = 1
        streams.clear()
        traces = compute_traces([E1, E2], good, cached=[(p, poisoned), (p[:5], np.zeros(5, np.int64))])
        assert streams == [([E2], good[5:])]
        assert np.array_equal(traces[0], poisoned)
        expected = _traces(E2, good)
        expected[:5] = 0
        assert np.array_equal(traces[1], expected)

    def test_cached_needs_one_pair_per_curve(self, monkeypatch):
        # a short list would leave rows of the empty table unwritten, a long
        # one index past the curves; both are refused before any trace work
        monkeypatch.setattr(experiment, "ap_stream", lambda c, p: pytest.fail("trace work started"))
        good, _ = good_primes(3000, E1, E2)
        pair = (np.array(good), np.zeros(len(good), np.int64))
        for curves, cached in (([E1, E2], [pair]), ([E1], [pair, pair]), ([E1], [])):
            with pytest.raises(ValueError, match=f"{len(cached)} cached column pairs for {len(curves)} curves"):
                compute_traces(curves, good, 1, cached)

    def test_experiment_opens_one_pool_only_on_a_cold_cache(self, tmp_path, monkeypatch, recording_pool):
        monkeypatch.setattr(experiment, "SEGMENT_MIN_PRIMES", 100)
        traced = []
        real = experiment.compute_traces
        monkeypatch.setattr(experiment, "compute_traces", lambda *a: traced.append(a[0]) or real(*a))
        cache = tmp_path / "cache"
        cold = parse_config(_config_text(3000, "3000", 2, cache_dir=str(cache)))
        run_experiment(cold, str(tmp_path / "cold"))
        assert recording_pool == [2] and traced == [(E1, E2)]
        run_experiment(cold, str(tmp_path / "warm"))  # every trace cached
        serial = parse_config(_config_text(3000, "3000", 1, cache_dir=str(tmp_path / "other")))
        run_experiment(serial, str(tmp_path / "serial"))
        assert recording_pool == [2] and len(traced) == 3
        for name in ("warm", "serial"):
            for artifact in ("match.csv", "growth.csv", "sieve.csv"):
                cold_bytes = (tmp_path / "cold" / artifact).read_bytes()
                assert (tmp_path / name / artifact).read_bytes() == cold_bytes


class TestGrowthSeries:
    def test_prefix_property(self):
        scan = scan_pair(E1, E2, 3000, naive_traces)
        series = growth_series(scan, (1000, 1009, 2000, 3000))  # 1009 is a good prime
        columns = (scan.p, scan.a_p, scan.b_p, scan.D1, scan.D2)
        for row in series:
            sub = scan_pair(E1, E2, row.x, naive_traces)
            assert row.pi_good == len(sub.p)
            assert row.s_equal_fields == sub.match_count
            assert row.s_joint_00 == count_joint_traces(sub, 0, 0)
            multiset = curve_pair_multiset(scan, row.x)
            assert np.array_equal(multiset.elements, curve_pair_multiset(sub, row.x).elements)
            prefix = PairScan(row.x, *(c[: row.pi_good] for c in columns), sub.excluded)
            table = chebotarev_empirical(prefix, 3, 5)
            assert table.counts == chebotarev_empirical(sub, 3, 5).counts
        counts = [r.s_equal_fields for r in series]
        assert counts == sorted(counts)


class TestRunExperiment:
    def test_deterministic_across_threads_and_cache(self, tmp_path):
        outs = {}
        for name, threads, cache in (
            ("t1-cold", 1, tmp_path / "cache-a"),
            ("t2-cold", 2, tmp_path / "cache-b"),
            ("t2-warm", 2, tmp_path / "cache-b"),
        ):
            out = tmp_path / name
            text = _config_text(3000, "1000, 3000", threads, cache) + "q1 = 3\nq2 = 5\n"
            cfg = parse_config(text)
            run_experiment(cfg, str(out))
            outs[name] = {
                f: (out / f).read_bytes()
                for f in ("match.csv", "growth.csv", "sieve.csv", "residue.csv")
            }
        assert outs["t1-cold"] == outs["t2-cold"] == outs["t2-warm"]

    def test_stale_text_cache_is_ignored_and_kept(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        stale = cache / f"traces_A{E1.A}_B{E1.B}.tsv"
        stale.write_text(f"#curve A={E1.A} B={E1.B}\n7\t1\n")  # a wrong trace
        scan = experiment.pair_scan(parse_config(_config_text(1500, "1500", 1, cache)))
        assert scan.a_p.tolist() == naive_row(E1, scan.p.tolist())
        assert stale.read_text() == f"#curve A={E1.A} B={E1.B}\n7\t1\n"
        assert _rows(read_trace_cache(cache_path(str(cache), E1), E1)) == list(
            zip(scan.p.tolist(), scan.a_p.tolist())
        )

    def test_warm_rerun_leaves_cache_files_alone(self, tmp_path):
        cache = tmp_path / "cache"
        experiment.pair_scan(parse_config(_config_text(1500, "1500", 1, cache)))
        paths = [cache_path(str(cache), c) for c in (E1, E2)]
        before = [(os.stat(f).st_ino, os.stat(f).st_mtime_ns) for f in paths]
        experiment.pair_scan(parse_config(_config_text(1500, "1000, 1500", 1, cache)))
        assert [(os.stat(f).st_ino, os.stat(f).st_mtime_ns) for f in paths] == before
        # a wider x adds traces, so each file is rewritten with them
        experiment.pair_scan(parse_config(_config_text(2000, "2000", 1, cache)))
        good, _ = good_primes(2000, E1, E2)
        assert all(read_trace_cache(f, c)[0].tolist() == good for f, c in zip(paths, (E1, E2)))

    def test_warm_rerun_at_a_smaller_x_keeps_the_larger_cache(self, tmp_path):
        cache = tmp_path / "cache"
        experiment.pair_scan(parse_config(_config_text(2000, "2000", 1, cache)))
        paths = [cache_path(str(cache), c) for c in (E1, E2)]
        stats = [(os.stat(f).st_ino, os.stat(f).st_mtime_ns) for f in paths]
        data = [open(f, "rb").read() for f in paths]
        scan = experiment.pair_scan(parse_config(_config_text(1000, "1000", 1, cache)))
        assert [(os.stat(f).st_ino, os.stat(f).st_mtime_ns) for f in paths] == stats
        assert [open(f, "rb").read() for f in paths] == data
        good, _ = good_primes(2000, E1, E2)
        assert read_trace_cache(paths[0], E1)[0].tolist() == good
        assert scan.a_p.tolist() == naive_row(E1, good_primes(1000, E1, E2)[0])

    def test_a_partial_cache_is_merged_and_rewritten(self, tmp_path):
        cache = tmp_path / "cache"
        path = cache_path(str(cache), E1)
        good, _ = good_primes(2000, E1, E2)
        # a cache of every other prime, with rows beyond x as well
        rows = list(zip(good, naive_row(E1, good)))
        write_trace_cache(path, E1, *_columns(rows[::2]))
        scan = experiment.pair_scan(parse_config(_config_text(1000, "1000", 1, cache)))
        assert scan.a_p.tolist() == naive_row(E1, scan.p.tolist())
        n = len(scan.p)
        assert _rows(read_trace_cache(path, E1)) == rows[:n] + rows[n:][(n % 2) :: 2]

    def test_artifacts_exist(self, tmp_path):
        cfg = parse_config(_config_text(1500, "1500", 1))
        series = run_experiment(cfg, str(tmp_path / "out"))
        assert len(series) == 1
        for f in ("match.csv", "growth.csv", "sieve.csv", "growth.svg"):
            assert (tmp_path / "out" / f).exists()

    def test_residue_artifact_with_modulus_pair(self, tmp_path):
        cfg = parse_config(_config_text(1500, "1500", 1) + "q1 = 3\nq2 = 5\n")
        run_experiment(cfg, str(tmp_path / "out"))
        lines = (tmp_path / "out" / "residue.csv").read_text().splitlines()
        assert lines[0] == "d,s,t,count,predicted"
        assert len(lines) == 1 + 8 * 15 * 15  # unit d columns, full (s, t) grid
        total = sum(int(line.split(",")[3]) for line in lines[1:])
        good, _ = good_primes(1500, E1, E2)
        assert total == len(good)

    @pytest.mark.parametrize("q1, q2", [(3, 5), (3, 7), (5, 7), (3, 11)])
    def test_residue_bytes_equal_csv_writer_cell_by_cell(self, q1, q2, demo_traces_1e4, tmp_path):
        # each prediction as the expression count(d,s) * count(d,t) / #H * li(x)
        # of its own cell, and every row through csv.writer
        cfg = parse_config(_config_text(10_000, "10000", 1) + f"q1 = {q1}\nq2 = {q2}\n")
        write_residue_csv(cfg, demo_traces_1e4, str(tmp_path / "residue.csv"))
        table = chebotarev_empirical(demo_traces_1e4, q1, q2)
        order, li_x = gl2.order_H_formula(q1, q2), log_integral(10_000)
        count = functools.cache(lambda d, s: gl2.count_det_trace_formula(q1, q2, d, s))
        with open(tmp_path / "expected.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["d", "s", "t", "count", "predicted"])
            w.writerows(
                (d, s, t, c, count(d, s) * count(d, t) / order * li_x)
                for d, s, t, c in table.cells()
            )
        expected = (tmp_path / "expected.csv").read_bytes()
        assert (tmp_path / "residue.csv").read_bytes() == expected
        assert expected.count(b"\r\n") == 1 + len(list(table.cells()))


class TestSvg:
    def test_well_formed_and_deterministic(self):
        series = [
            ("a", [(10.0, 5.0), (100.0, 20.0), (1000.0, 80.0)]),
            ("b", [(10.0, 2.0), (100.0, 300.0)]),
        ]
        doc = render_loglog_svg(series, "demo")
        assert doc == render_loglog_svg(series, "demo")
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert doc.count("<polyline") == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            render_loglog_svg([("a", [(10.0, 0.0)])], "empty")


class TestVerificationGates:
    def test_suites_pass(self, tmp_path):
        ok, _ = verify.verify_gl2(str(tmp_path))
        assert ok
        assert (tmp_path / "gl2_verification.csv").exists()
        ok, _ = verify.verify_charsum(str(tmp_path))
        assert ok
        ok, _ = verify.verify_elliptic(p_max_naive=300, p_max_lanes=1000)
        assert ok

    def test_elliptic_suite_catches_a_wrong_stream(self, monkeypatch):
        real = verify.ap_stream

        def wrong(curves, primes):
            table = real(curves, primes)
            table[:, -1] += 2
            return table

        monkeypatch.setattr(verify, "ap_stream", wrong)
        ok, msg = verify.verify_elliptic(p_max_naive=300, p_max_lanes=1000)
        assert not ok
        assert msg.endswith("mismatches: 5")

    def test_elliptic_suite_catches_a_wrong_parity(self, monkeypatch):
        real = verify._lane_parity
        monkeypatch.setattr(verify, "_lane_parity", lambda p, a, b: 1 - real(p, a, b))
        ok, msg = verify.verify_elliptic(p_max_naive=300, p_max_lanes=1000)
        assert not ok
        assert f"parity mismatches: {sum(len(good_primes(1000, c)[0]) for c in verify.TEST_CURVES)};" in msg

    def test_report_into_a_new_nested_directory(self, tmp_path):
        out = tmp_path / "reports" / "gl2"
        ok, _ = verify.verify_gl2(str(out))
        assert ok
        header = (out / "gl2_verification.csv").read_text().splitlines()[0]
        assert header == ",".join(gl2.GL2_CSV_COLUMNS)

    def test_sieve_suite_catches_a_wrong_squarefree_column(self, monkeypatch):
        ok, msg = verify.verify_sieve()
        assert ok, msg
        real = arith._squarefree_column
        monkeypatch.setattr(arith, "_squarefree_column", lambda n: real(n) * (1 + (n == n.max())))
        ok, msg = verify.verify_sieve()
        assert not ok
        assert "squarefree column == scalar trial division: False" in msg

    def test_injected_fault_detected(self, monkeypatch):
        real = gl2.count_det_trace_single
        monkeypatch.setattr(gl2, "count_det_trace_single", lambda q, d, t: real(q, d, t) + 1)
        ok, msg = verify.verify_gl2()
        assert not ok
        assert "mismatches" in msg


class TestBundledDemo:
    def test_demo_config_runs_and_ratio_is_small(self, tmp_path, capsys):
        import pathlib

        demo = pathlib.Path(__file__).resolve().parent.parent / "demo.cfg"
        assert demo.exists()
        rc = cli.main(
            [
                "--threads", "2",
                "--cache", str(tmp_path / "cache"),
                "--out", str(tmp_path / "out"),
                "experiment", str(demo),
            ]
        )
        assert rc == 0
        rows = (tmp_path / "out" / "growth.csv").read_text().splitlines()[1:]
        last = rows[-1].split(",")
        x, matched, pi_good = int(last[0]), int(last[1]), int(last[3])
        assert x == 100_000
        assert matched / pi_good < 0.5
        assert (tmp_path / "out" / "residue.csv").exists()


class TestCli:
    @pytest.mark.parametrize(
        "A, B, p, a_p",
        [
            ("0", "1", "7", "-4"),
            # Python-int lanes; cross-checked with a scalar BSGS search (Cohen, Alg. 7.4.12)
            ("2", "3", "999999999989", "1046250"),
        ],
        ids=["small", "python-int-lanes"],
    )
    def test_ap(self, A, B, p, a_p, capsys):
        assert cli.main(["ap", A, B, p]) == 0
        assert capsys.readouterr().out.strip() == a_p

    @settings(max_examples=150, deadline=None)
    @given(
        A=st.integers(-30, 30),
        B=st.integers(-30, 30),
        p=st.one_of(
            st.integers(-10, 2500),
            st.integers(-10, 2000).map(_next_prime),
            st.integers(2500, 10**7),
            st.integers(2500, 10**7).map(_next_prime),
        ),
    )
    def test_ap_exits_0_or_2_and_prints_the_trace(self, A, B, p):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["ap", str(A), str(B), str(p)])
        assert code in (0, 2)
        if code == 0:
            t = int(out.getvalue())
            assert t * t < 4 * p
            if p < 2000:
                assert t == naive_ap(CurveQ(A, B), p)

    def test_ap_bad_prime_is_config_error(self, capsys):
        assert cli.main(["ap", "0", "1", "3"]) == 2

    @pytest.mark.parametrize("p", ["1001", "9", "1", "0", "-7", str(10**12 + 39)])
    def test_ap_rejects_non_prime_or_huge_p(self, p, capsys):
        assert cli.main(["ap", "0", "1", p]) == 2
        assert f"p={p}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, edit",
        [
            ("experiment", ("z_policy = fixed:20\n", "")),  # default grh: z < 3
            ("experiment", ("threads", "q1 = 3\nq2 = 3\nthreads")),
            ("experiment", ("threads", "q1 = 11\nq2 = 13\nthreads")),  # table too large
            ("sieve-demo", ("z_policy = fixed:20\n", "")),
            ("experiment", ("x_checkpoints = 50000", "x_checkpoints = 50, 50000")),
        ],
        ids=["grh", "equal-moduli", "large-moduli", "sieve-demo-grh", "checkpoint-below-100"],
    )
    def test_bad_config_fails_before_trace_work(self, tmp_path, monkeypatch, capsys, command, edit):
        def no_traces(*args, **kwargs):
            raise AssertionError("traces computed for a config that must fail")

        monkeypatch.setattr(experiment, "compute_traces", no_traces)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_config_text(50_000, "50000", 1).replace(*edit))
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), command, str(cfg)]) == 2
        assert list(out.iterdir()) == []

    def test_window_of_three_runs(self, tmp_path, capsys):
        # z in [3, 4): the window is {3} (2 is not a window prime)
        cfg = tmp_path / "z35.cfg"
        cfg.write_text(_config_text(1000, "1000", 1).replace("fixed:20", "fixed:3.5"))
        assert cli.main(["--out", str(tmp_path / "o"), "experiment", str(cfg)]) == 0
        assert (tmp_path / "o" / "sieve.csv").read_text().splitlines()[1].startswith("2,3.5,1,")

    def test_huge_fixed_z_fails_fast(self, tmp_path):
        # in a child process, so a window sieved up to 10^15 fails the test
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(_config_text(1000, "1000", 1).replace("fixed:20", "fixed:1e15"))
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(frobmatch.__file__)))
        child = subprocess.run(
            [sys.executable, "-m", "frobmatch.cli", "--out", str(out), "experiment", str(cfg)],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        assert child.returncode == 2
        assert "z_policy" in child.stderr
        assert list(out.iterdir()) == []

    def test_arithmetic_error_is_verification_failure(self, tmp_path, monkeypatch, capsys):
        def violated(*args):
            raise ArithmeticError("square-sieve inequality violated: injected")

        monkeypatch.setattr(cli, "sieve_bound_v2", violated)
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(_config_text(1000, "1000", 1))
        assert cli.main(["--out", str(tmp_path / "o"), "sieve-demo", str(cfg)]) == 1
        assert "verification failure: square-sieve" in capsys.readouterr().err

    def test_square_count_off_the_matches_is_verification_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        # D = 1 for every prime makes every prime a match, but not every
        # pair product a square
        monkeypatch.setattr(arith, "_squarefree_column", lambda n: np.ones(len(n), np.int64))
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(_config_text(1000, "1000", 1))
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "experiment", str(cfg)]) == 1
        assert "verification failure: square count" in capsys.readouterr().err
        assert not (out / "sieve.csv").exists()

    def test_singular_curve_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_config_text(1000, "1000", 1).replace("A = 2\nB = 3", "A = 0\nB = 0"))
        assert cli.main(["match-count", str(cfg)]) == 2

    def test_missing_config_file(self):
        assert cli.main(["match-count", "/nonexistent.cfg"]) == 2

    def test_match_count_and_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(_config_text(1000, "1000", 1))
        assert cli.main(["--out", str(tmp_path / "o"), "match-count", str(cfg)]) == 0
        assert "matched fields:" in capsys.readouterr().out
        assert (tmp_path / "o" / "match.csv").exists()

    def test_sieve_demo(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(_config_text(1000, "1000", 1))
        assert cli.main(["--out", str(tmp_path / "o"), "sieve-demo", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "version 1 skipped" in out  # elements far exceed e^P at z=20
        assert (tmp_path / "o" / "sieve.csv").exists()

    def test_gl2_verify_exit_codes(self, tmp_path, monkeypatch, capsys):
        assert cli.main(["--out", str(tmp_path), "gl2-verify"]) == 0
        real = gl2.count_det_trace_single
        monkeypatch.setattr(gl2, "count_det_trace_single", lambda q, d, t: real(q, d, t) + 1)
        assert cli.main(["--out", str(tmp_path), "gl2-verify"]) == 1

    def test_flags_after_subcommand(self, tmp_path, capsys):
        assert cli.main(["charsum-verify", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "charsum_verification.csv").exists()

    def test_threads_override(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(_config_text(1000, "1000", 4))
        assert cli.main(
            ["--threads", "1", "--out", str(tmp_path / "o"), "match-count", str(cfg)]
        ) == 0
        capsys.readouterr()
        assert cli.main(["--threads", "0", "--out", str(tmp_path / "o"), "match-count", str(cfg)]) == 2
        assert "--threads must be positive, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("broken", [None, "false", "raise"])
    def test_verify_all(self, tmp_path, capsys, monkeypatch, broken):
        # the four suites stubbed: one line each in suite order, and a
        # failing or raising suite gives exit 1 without stopping the rest
        names = ("gl2", "charsum", "elliptic", "sieve")
        ran = []

        def stub(name):
            def suite(*out_dir):
                ran.append(name)
                if name == "charsum" and broken == "raise":
                    raise RuntimeError("boom")
                return not (name == "charsum" and broken == "false"), f"{name} stub"

            return suite

        for name in names:
            monkeypatch.setattr(verify, f"verify_{name}", stub(name))
        code = cli.main(["--out", str(tmp_path), "verify-all"])
        lines = capsys.readouterr().out.splitlines()
        assert ran == list(names)
        expected = [f"PASS {name} stub" for name in names]
        if broken == "false":
            expected[1] = "FAIL charsum stub"
        elif broken == "raise":
            expected[1] = "FAIL charsum: raised RuntimeError('boom')"
        assert lines == expected
        assert code == (0 if broken is None else 1)


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `python -c code args...` on this checkout's frobmatch, under a timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(frobmatch.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60, env=env
    )


_CLI = "import sys; from frobmatch import cli; sys.exit(cli.main(sys.argv[1:]))"


class TestCliBadPaths:
    # exit 1 means a verification failure, so an unusable path must be exit 2
    def _assert_input_error(self, child):
        assert child.returncode == 2
        assert "Traceback" not in child.stderr
        assert child.stderr.startswith("error: ")

    def test_out_is_a_file_for_ap(self, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        self._assert_input_error(_child(_CLI, "--out", str(out), "ap", "0", "1", "7"))

    def test_out_is_a_file_for_experiment(self, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(_config_text(1000, "1000", 1))
        self._assert_input_error(_child(_CLI, "--out", str(out), "experiment", str(cfg)))

    def test_cache_dir_is_a_file(self, tmp_path):
        cache = tmp_path / "taken"
        cache.write_text("")
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(_config_text(1000, "1000", 1, cache_dir=str(cache)))
        child = _child(_CLI, "--out", str(tmp_path / "o"), "experiment", str(cfg))
        self._assert_input_error(child)
        assert cache.read_text() == ""

    def test_cache_dir_is_a_file_fails_before_trace_work(self, tmp_path, monkeypatch, capsys):
        def no_traces(*args, **kwargs):
            raise AssertionError("traces computed for a cache dir that cannot be used")

        monkeypatch.setattr(experiment, "compute_traces", no_traces)
        cache = tmp_path / "taken"
        cache.write_text("")
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(_config_text(1000, "1000", 1, cache_dir=str(cache)))
        assert cli.main(["--out", str(tmp_path / "o"), "experiment", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_experiment_runs_without_scipy(tmp_path):
    # a fresh interpreter: an experiment must never load scipy, whose import
    # alone costs more than a small experiment
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(_config_text(1000, "1000", 1))
    code = (
        "import sys; from frobmatch import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    child = _child(code, "--out", str(tmp_path / "o"), "experiment", str(cfg))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[]"


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_reads_a_warm_experiment(tmp_path, monkeypatch, capsys):
    # perfbench's tracer wraps compute_traces and tests `p in cached` for
    # every prime it is given, so the primes must stay Python ints
    monkeypatch.syspath_prepend(os.path.join(_ROOT, "perfbench"))
    import tracer

    cfg = tmp_path / "warm.cfg"
    cfg.write_text(_config_text(3000, "3000", 1, cache_dir=str(tmp_path / "cache")))
    argv = ["--out", str(tmp_path / "o"), "experiment", str(cfg)]
    assert cli.main(argv) == 0  # cold: fills the cache
    with tracer.Tracer() as tr:
        code = cli.main(argv)
    assert code == 0, capsys.readouterr().err
    assert [s.name for s in tr.spans].count("experiment.compute_traces") == 1
    assert tr.primes_requested == len(good_primes(3000, E1, E2)[0])


def test_readme_library_snippet_runs(capsys):
    with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library use", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
