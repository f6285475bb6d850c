"""Cache, experiment orchestration, SVG, verification gates, and the CLI."""

import contextlib
import io
import os
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobmatch import cli, experiment, gl2, verify
from frobmatch.arith import is_prime
from frobmatch.cache import cache_path, read_trace_cache, write_trace_cache
from frobmatch.config import parse_config
from frobmatch.elliptic import CurveQ, ap_naive
from frobmatch.experiment import compute_traces, growth_series, run_experiment
from frobmatch.frobenius import good_primes, scan_pair
from frobmatch.svgplot import render_loglog_svg
from conftest import naive_traces

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


class TestCache:
    def test_roundtrip(self, tmp_path):
        path = cache_path(str(tmp_path), E1)
        traces = {p: ap_naive(E1, p) for p in (7, 13, 17)}
        write_trace_cache(path, E1, traces)
        assert read_trace_cache(path, E1) == traces

    def test_header_mismatch_is_a_miss(self, tmp_path):
        path = cache_path(str(tmp_path), E1)
        write_trace_cache(path, E1, {7: ap_naive(E1, 7)})
        assert read_trace_cache(path, E2) == {}

    def test_corrupt_file_is_a_miss(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(f"#curve A={E1.A} B={E1.B}\n7\tnot-a-number\n")
        assert read_trace_cache(str(path), E1) == {}

    def test_out_of_order_rows_are_a_miss(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(f"#curve A={E1.A} B={E1.B}\n13\t2\n7\t0\n")
        assert read_trace_cache(str(path), E1) == {}

    def test_missing_file_is_a_miss(self, tmp_path):
        assert read_trace_cache(str(tmp_path / "nope.tsv"), E1) == {}

    def test_overlapping_writers_each_land_whole(self, tmp_path):
        # a second writer runs to completion while the first is mid-file
        path = cache_path(str(tmp_path), E1)
        first = {p: ap_naive(E1, p) for p in (7, 13, 17)}
        second = {7: first[7]}

        class Interrupting(dict):
            def __getitem__(self, p):
                if p == 13:
                    write_trace_cache(path, E1, second)
                    assert read_trace_cache(path, E1) == second
                return super().__getitem__(p)

        write_trace_cache(path, E1, Interrupting(first))
        assert read_trace_cache(path, E1) == first
        assert [f.name for f in tmp_path.iterdir()] == [f"traces_A{E1.A}_B{E1.B}.tsv"]


class TestComputeTraces:
    def test_pool_matches_inline(self):
        good, _ = good_primes(4000, E1)
        inline = compute_traces(E1, good, threads=1)
        pooled = compute_traces(E1, good, threads=2, work_unit=100)
        assert inline == pooled
        assert set(inline) == set(good)

    def test_cache_reuse_skips_work(self):
        good, _ = good_primes(1000, E1)
        full = compute_traces(E1, good)
        # poison a fake cache entry to prove cached values are trusted as-is
        poisoned = dict(full)
        poisoned[good[0]] = 1
        again = compute_traces(E1, good, cached=poisoned)
        assert again[good[0]] == 1
        assert all(again[p] == full[p] for p in good[1:])


class TestGrowthSeries:
    def test_prefix_property(self):
        scan = scan_pair(E1, E2, 3000, naive_traces)
        series = growth_series(scan.records, (1000, 2000, 3000))
        for row in series.rows:
            sub = scan_pair(E1, E2, row.x, naive_traces)
            assert row.pi_good == len(sub.records)
            assert row.s_equal_fields == sub.match_count
        counts = [r.s_equal_fields for r in series.rows]
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
            cfg = parse_config(_config_text(3000, "1000, 3000", threads, cache))
            run_experiment(cfg, str(out))
            outs[name] = {
                f: (out / f).read_bytes() for f in ("match.csv", "growth.csv", "sieve.csv")
            }
        assert outs["t1-cold"] == outs["t2-cold"] == outs["t2-warm"]

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
        assert all(set(read_trace_cache(f, c)) == set(good) for f, c in zip(paths, (E1, E2)))

    def test_artifacts_exist(self, tmp_path):
        cfg = parse_config(_config_text(1500, "1500", 1))
        series = run_experiment(cfg, str(tmp_path / "out"))
        assert len(series.rows) == 1
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
                assert t == ap_naive(CurveQ(A, B), p)

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

    def test_arithmetic_error_is_verification_failure(self, tmp_path, monkeypatch, capsys):
        def violated(*args):
            raise ArithmeticError("square-sieve inequality violated: injected")

        monkeypatch.setattr(cli, "sieve_bound_v2", violated)
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(_config_text(1000, "1000", 1))
        assert cli.main(["--out", str(tmp_path / "o"), "sieve-demo", str(cfg)]) == 1
        assert "verification failure: square-sieve" in capsys.readouterr().err

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
