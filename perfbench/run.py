#!/usr/bin/env python3
"""frobmatch benchmark: runs `frobmatch experiment` in-process on generated
configs, times it from outside the package, and checks every output.

    python3 perfbench/run.py --workload cold-serial --seed 0 --seconds 24 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Progress and diagnostics go to stderr.  The last line of
stdout is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
one extra traced run with `--trace 1`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 45

# name -> (unit, which direction is better); BENCHMARK.json lists the same.
E2E_METRICS = {
    "wall_s": ("s", "lower"),
    "good_primes_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
LAYER_METRICS = {
    "elliptic.ap_bsgs.s": ("s", "lower"),
    "elliptic.ap_bsgs.calls": ("count", "lower"),
    "elliptic.ap_bsgs.us_p50": ("us", "lower"),
    "elliptic.ap_bsgs.us_p99": ("us", "lower"),
    "elliptic.ap_bsgs.us_p50_1e4": ("us", "lower"),
    "elliptic.ap_bsgs.us_p50_1e5": ("us", "lower"),
    "elliptic.ap_naive.calls": ("count", "lower"),
    "elliptic.wall_share": ("ratio", "lower"),
    "experiment.compute_traces.s": ("s", "lower"),
    "experiment.compute_traces.calls": ("count", "lower"),
    "experiment.traces_computed": ("count", "lower"),
    "experiment.core_utilization": ("ratio", "higher"),
    "sieve.sieve_bound_v2.s": ("s", "lower"),
    "sieve.sieve_bound_v2.calls": ("count", "lower"),
    "sieve.sieve_bound_v2.self_s": ("s", "lower"),
    "sieve.square_count_exact.s": ("s", "lower"),
    "sieve.build_prime_window.s": ("s", "lower"),
    "arith.jacobi_symbol.calls": ("count", "lower"),
    "sieve.wall_share": ("ratio", "lower"),
    "frobenius.scan_pair.s": ("s", "lower"),
    "frobenius.scan_pair.self_s": ("s", "lower"),
    "arith.squarefree_part.s": ("s", "lower"),
    "arith.squarefree_part.calls": ("count", "lower"),
    "frobenius.good_primes.s": ("s", "lower"),
    "arith.primes_in.s": ("s", "lower"),
    "frobenius.chebotarev_empirical.s": ("s", "lower"),
    "cache.read_trace_cache.s": ("s", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.write_trace_cache.s": ("s", "lower"),
    "cache.write_trace_cache.bytes": ("bytes", "lower"),
    "frobenius.write_match_csv.s": ("s", "lower"),
    "experiment.write_growth_csv.s": ("s", "lower"),
    "experiment.write_sieve_csv.s": ("s", "lower"),
    "experiment.write_residue_csv.s": ("s", "lower"),
    "gl2.class_ratio.s": ("s", "lower"),
    "gl2.class_ratio.calls": ("count", "lower"),
    "svgplot.render_loglog_svg.s": ("s", "lower"),
    "experiment.artifact_bytes": ("bytes", "lower"),
    "config.parse_config.s": ("s", "lower"),
    "experiment.run_experiment.self_s": ("s", "lower"),
    "bench.traced_wall_s": ("s", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.fail_ratio": ("ratio", "lower"),
}

# One set-up, run in a fresh interpreter: import the CLI, load the config,
# and (warm workload) fill the trace cache by running the experiment itself.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from frobmatch.cli import main
from frobmatch.config import load_config
load_config(sys.argv[2])
if len(sys.argv) > 3:
    sys.exit(main(["--out", sys.argv[3], "experiment", sys.argv[2]]))
"""


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Checks:
    """Correctness checks attempted and failed during one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED: {what}")
        return ok


def cpu_seconds() -> float:
    """User + system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(workload, seed: int, pair) -> dict:
    import numpy
    import scipy

    return {
        "nproc": workloads.nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "workload": workload.name,
        "threads": workload.threads,
        "seed": seed,
        "pair": workloads.pair_label(pair),
    }


class Bench:
    def __init__(self, workload, seed: int, workdir: str) -> None:
        self.wl = workload
        self.seed = seed
        self.pair = workloads.pair_for_seed(seed)
        self.curves = [CurveQ(a, b) for a, b in self.pair]
        goldens = gate.load_goldens()[workloads.pair_label(self.pair)]
        self.golden = goldens[f"fixed{workload.z}"]
        self.fill_golden = goldens[f"fixed{workloads.COLD_Z}"]
        self.checks = Checks()
        self.cache_dir = os.path.join(workdir, "cache")
        self.out_dir = os.path.join(workdir, "out")
        self.cfg = os.path.join(workdir, "timed.cfg")
        self.fill_cfg = os.path.join(workdir, "fill.cfg")
        self.fill_out = os.path.join(workdir, "fill-out")
        with open(self.cfg, "w") as fh:
            fh.write(workloads.config_text(self.pair, workload.z, workload.threads, self.cache_dir))
        with open(self.fill_cfg, "w") as fh:
            fh.write(
                workloads.config_text(self.pair, workloads.COLD_Z, workloads.nproc(), self.cache_dir)
            )

    # -- set-up ------------------------------------------------------------

    def setup_once(self) -> float:
        cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC)]
        if self.wl.warm:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            shutil.rmtree(self.fill_out, ignore_errors=True)
            cmd += [self.fill_cfg, self.fill_out]
        else:
            cmd += [self.cfg]
        t0 = time.perf_counter()
        # own process group, so a timeout also stops the pool workers of a cache fill
        proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT, start_new_session=True)
        try:
            rc = proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"set-up took longer than {SETUP_TIMEOUT_S} s") from None
        elapsed = time.perf_counter() - t0
        self.checks.record(rc == 0, f"set-up exited with {rc}")
        if self.wl.warm:
            bad = gate.digest_mismatches(self.fill_out, self.fill_golden)
            self.checks.record(not bad, f"cache-fill artifacts differ from goldens: {bad}")
        return elapsed

    # -- one timed program run --------------------------------------------

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if not self.wl.warm:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            os.makedirs(self.cache_dir)

    def run_program(self) -> tuple[float, float] | None:
        """(wall seconds, cpu seconds) of one `frobmatch experiment`, then
        the digest gate on its artifacts; None when the program failed."""
        self.prepare()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(["--out", self.out_dir, "experiment", self.cfg])
        except Exception:
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        ok = self.checks.record(rc == 0, f"experiment exited with {rc}")
        bad = gate.digest_mismatches(self.out_dir, self.golden)
        for name in gate.ARTIFACTS:
            self.checks.record(name not in bad, f"{name} differs from its golden digest")
        return (wall, cpu) if ok else None

    def oracle_sample(self) -> int:
        """Re-derive a seeded sample of match.csv rows; returns the number of
        good primes (rows) in the file."""
        match_csv = os.path.join(self.out_dir, "match.csv")
        for row in gate.sample_rows(match_csv, self.seed):
            problems = gate.check_row(row, *self.curves)
            self.checks.record(not problems, f"oracle mismatch: {problems}")
        with open(match_csv) as fh:
            return sum(1 for _ in fh) - 1


def layer_metrics(tr, wall: float, cpu: float, threads: int, untraced_wall: float,
                  out_dir: str, checks: Checks) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in LAYER_METRICS."""
    spans = tr.spans
    total: dict[str, float] = {}
    calls: dict[str, int] = dict(tr.calls)
    self_s: dict[str, float] = {}
    for s, st in zip(spans, tracer.self_times(spans)):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st

    bsgs = [((s.end - s.start) * 1e6, s.arg) for s in spans if s.name == "elliptic.ap_bsgs"]

    def p50(lo: float = 0, hi: float = float("inf")) -> float:
        d = [us for us, p in bsgs if lo <= p < hi]
        return statistics.median(d) if d else 0.0

    durations = [us for us, _ in bsgs]
    p99 = statistics.quantiles(durations, n=100)[98] if len(durations) > 1 else sum(durations)

    artifact_bytes = sum(
        os.path.getsize(os.path.join(out_dir, n))
        for n in gate.ARTIFACTS
        if os.path.exists(os.path.join(out_dir, n))
    )
    return {
        "elliptic.ap_bsgs.s": total.get("elliptic.ap_bsgs", 0.0),
        "elliptic.ap_bsgs.calls": calls.get("elliptic.ap_bsgs", 0),
        "elliptic.ap_bsgs.us_p50": p50(),
        "elliptic.ap_bsgs.us_p99": p99,
        "elliptic.ap_bsgs.us_p50_1e4": p50(1e4, 1e5),
        "elliptic.ap_bsgs.us_p50_1e5": p50(1e5, 1e6),
        "elliptic.ap_naive.calls": calls.get("elliptic.ap_naive", 0),
        "elliptic.wall_share": tracer.layer_time(spans, "elliptic") / wall,
        "experiment.compute_traces.s": total.get("experiment.compute_traces", 0.0),
        "experiment.compute_traces.calls": calls.get("experiment.compute_traces", 0),
        "experiment.traces_computed": tr.primes_requested - tr.primes_cached,
        "experiment.core_utilization": cpu / (wall * threads),
        "sieve.sieve_bound_v2.s": total.get("sieve.sieve_bound_v2", 0.0),
        "sieve.sieve_bound_v2.calls": calls.get("sieve.sieve_bound_v2", 0),
        "sieve.sieve_bound_v2.self_s": self_s.get("sieve.sieve_bound_v2", 0.0),
        "sieve.square_count_exact.s": total.get("sieve.square_count_exact", 0.0),
        "sieve.build_prime_window.s": total.get("sieve.build_prime_window", 0.0),
        "arith.jacobi_symbol.calls": calls.get("arith.jacobi_symbol", 0),
        "sieve.wall_share": tracer.layer_time(spans, "sieve") / wall,
        "frobenius.scan_pair.s": total.get("frobenius.scan_pair", 0.0),
        "frobenius.scan_pair.self_s": self_s.get("frobenius.scan_pair", 0.0),
        "arith.squarefree_part.s": total.get("arith.squarefree_part", 0.0),
        "arith.squarefree_part.calls": calls.get("arith.squarefree_part", 0),
        "frobenius.good_primes.s": total.get("frobenius.good_primes", 0.0),
        "arith.primes_in.s": total.get("arith.primes_in", 0.0),
        "frobenius.chebotarev_empirical.s": total.get("frobenius.chebotarev_empirical", 0.0),
        "cache.read_trace_cache.s": total.get("cache.read_trace_cache", 0.0),
        "cache.hit_ratio": tr.primes_cached / tr.primes_requested if tr.primes_requested else 0.0,
        "cache.write_trace_cache.s": total.get("cache.write_trace_cache", 0.0),
        "cache.write_trace_cache.bytes": tr.cache_bytes_written,
        "frobenius.write_match_csv.s": total.get("frobenius.write_match_csv", 0.0),
        "experiment.write_growth_csv.s": total.get("experiment.write_growth_csv", 0.0),
        "experiment.write_sieve_csv.s": total.get("experiment.write_sieve_csv", 0.0),
        "experiment.write_residue_csv.s": total.get("experiment.write_residue_csv", 0.0),
        "gl2.class_ratio.s": total.get("gl2.class_ratio", 0.0),
        "gl2.class_ratio.calls": calls.get("gl2.class_ratio", 0),
        "svgplot.render_loglog_svg.s": total.get("svgplot.render_loglog_svg", 0.0),
        "experiment.artifact_bytes": artifact_bytes,
        "config.parse_config.s": total.get("config.parse_config", 0.0),
        "experiment.run_experiment.self_s": self_s.get("experiment.run_experiment", 0.0),
        "bench.traced_wall_s": wall,
        "bench.trace_overhead_ratio": wall / untraced_wall,
        "bench.fail_ratio": checks.failed / checks.attempted,
    }


def run(args) -> dict:
    wl = workloads.workloads()[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(wl, args.seed, workdir)
        facts = machine_facts(wl, args.seed, bench.pair)

        setups = [bench.setup_once() for _ in range(SETUP_REPEATS)]

        walls, cpus = [], []
        t_start = time.perf_counter()
        while not walls or time.perf_counter() - t_start < args.seconds:
            res = bench.run_program()
            if res is None:
                break
            walls.append(res[0])
            cpus.append(res[1])
            log(f"run {len(walls)}: wall {res[0]:.3f} s, cpu {res[1]:.3f} s")
        if not walls:
            raise RuntimeError("the program failed on its first timed run")
        n_good = bench.oracle_sample()
        wall = statistics.median(walls)

        if args.trace:
            tr = tracer.Tracer()
            with tr:
                res = bench.run_program()
            if res is None:
                raise RuntimeError("the traced run failed")
            metrics = layer_metrics(tr, res[0], res[1], wl.threads, wall, bench.out_dir, bench.checks)
            units = LAYER_METRICS
        else:
            metrics = {
                "wall_s": wall,
                "good_primes_per_s": n_good / wall,
                "cpu_s": statistics.median(cpus),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = E2E_METRICS
        facts.update(setup_s_each=setups, timed_runs=len(walls), wall_s_each=walls)
        print(json.dumps({"facts": facts}))
        return {
            "correct": bench.checks.failed == 0,
            "attempted": bench.checks.attempted,
            "failed": bench.checks.failed,
            "metrics": {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in units.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.workloads()))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    if not (SRC / "frobmatch" / "__init__.py").is_file():
        log(f"no frobmatch package under {SRC}; run from a full checkout")
        sys.exit(2)
    sys.path.insert(0, str(SRC))

    import gate
    from frobmatch import cli
    from frobmatch.elliptic import CurveQ

    try:
        result = run(args)
    except RuntimeError as e:
        log(f"error: {e}")
        sys.exit(3)
    print(json.dumps(result))
