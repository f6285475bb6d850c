"""Experiment orchestration: cached parallel trace computation, growth
series against the bound shapes, sieve reports per checkpoint, and CSV/SVG
artifacts.

Work units are fixed-size blocks of primes handed to a process pool (the
trace kernel runs Python between its many small numpy calls, so threads
would contend for the interpreter lock);
results are merged in block order, so output is a function of the config
alone, independent of worker count and cache state.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from frobmatch.arith import log_integral
from frobmatch.cache import cache_path, read_trace_cache, write_trace_cache
from frobmatch.config import ExperimentConfig
# nothing here calls ap_bsgs; the binding stays for perfbench's tracer, which wraps it
from frobmatch.elliptic import CurveQ, ap_bsgs, ap_lanes  # noqa: F401
from frobmatch.frobenius import (
    MatchRecord,
    PairScan,
    chebotarev_empirical,
    residue_modulus,
    scan_pair,
    write_match_csv,
)
from frobmatch.gl2 import class_ratio
from frobmatch.sieve import (
    SIEVE_CSV_COLUMNS,
    SieveReport,
    build_prime_window,
    check_bound_x,
    choose_z_grh,
    choose_z_uncond,
    curve_pair_multiset,
    sieve_bound_v2,
    theorem_bound_curves,
)
from frobmatch.svgplot import render_loglog_svg

WORK_UNIT_PRIMES = 10_000

GROWTH_CSV_COLUMNS = [
    "x",
    "s_equal_fields",
    "s_joint_00",
    "pi_good",
    "grh_shape",
    "uncond_shape",
    "loglog_shape",
]


@dataclass(frozen=True)
class GrowthRow:
    x: int
    s_equal_fields: int
    s_joint_00: int
    pi_good: int
    grh_shape: float
    uncond_shape: float
    loglog_shape: float


@dataclass(frozen=True)
class GrowthSeries:
    rows: tuple[GrowthRow, ...]


def _trace_block(args: tuple[int, int, tuple[int, ...]]) -> list[int]:
    a, b, primes = args
    return ap_lanes(CurveQ(a, b), list(primes))


def compute_traces(
    curve: CurveQ,
    primes: list[int],
    threads: int = 1,
    cached: dict[int, int] | None = None,
    work_unit: int = WORK_UNIT_PRIMES,
) -> dict[int, int]:
    """{p: a_p} for every listed good prime, reusing `cached` entries."""
    traces = dict(cached or {})
    missing = [p for p in primes if p not in traces]
    blocks = [
        tuple(missing[i : i + work_unit]) for i in range(0, len(missing), work_unit)
    ]
    args = [(curve.A, curve.B, blk) for blk in blocks]
    if threads > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_trace_block, args))
    else:
        results = [_trace_block(a) for a in args]
    for blk, vals in zip(blocks, results):
        traces.update(zip(blk, vals))
    return traces


def _cached_traces(cfg: ExperimentConfig, curve: CurveQ, good: list[int]) -> list[int]:
    """[a_p for p in good] by compute_traces, through the curve's cache file
    if one is configured; the file is rewritten only when traces were added."""
    if cfg.cache_dir is None:
        traces = compute_traces(curve, good, cfg.threads)
    else:
        path = cache_path(cfg.cache_dir, curve)
        cached = read_trace_cache(path, curve)
        traces = compute_traces(curve, good, cfg.threads, cached)
        if len(traces) > len(cached):
            write_trace_cache(path, curve, traces)
    return [traces[p] for p in good]


def pair_scan(cfg: ExperimentConfig) -> PairScan:
    """The configured pair's PairScan at x_max, traces cached and parallel."""
    return scan_pair(cfg.curve1, cfg.curve2, cfg.x_max, functools.partial(_cached_traces, cfg))


def checkpoint_z(cfg: ExperimentConfig, x: int) -> float:
    if cfg.z_policy == "fixed":
        return float(cfg.z_fixed)  # validated >= 3 at parse time
    z = choose_z_grh(x) if cfg.z_policy == "grh" else choose_z_uncond(x)
    if z < 3:
        raise ValueError(
            f"z_policy={cfg.z_policy} gives z={z:.3g} < 3 at x={x}: the asymptotic "
            "choice needs astronomically large x; use z_policy=fixed:<z>"
        )
    return z


def growth_series(records: tuple[MatchRecord, ...], checkpoints: tuple[int, ...]) -> GrowthSeries:
    rows = []
    i = 0
    equal = joint00 = total = 0
    for x in checkpoints:
        while i < len(records) and records[i].p <= x:
            r = records[i]
            total += 1
            equal += r.matched
            joint00 += r.a_p == 0 and r.b_p == 0
            i += 1
        rows.append(
            GrowthRow(
                x=x,
                s_equal_fields=equal,
                s_joint_00=joint00,
                pi_good=total,
                grh_shape=theorem_bound_curves(x, "grh"),
                uncond_shape=theorem_bound_curves(x, "uncond"),
                loglog_shape=math.log(math.log(x)),
            )
        )
    return GrowthSeries(tuple(rows))


def write_growth_csv(series: GrowthSeries, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(GROWTH_CSV_COLUMNS)
        for r in series.rows:
            w.writerow(
                [
                    r.x,
                    r.s_equal_fields,
                    r.s_joint_00,
                    r.pi_good,
                    repr(r.grh_shape),
                    repr(r.uncond_shape),
                    repr(r.loglog_shape),
                ]
            )


def write_sieve_csv(reports: list[SieveReport], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SIEVE_CSV_COLUMNS)
        for rep in reports:
            w.writerow(rep.csv_row())


def growth_svg(series: GrowthSeries) -> str:
    xs = [r.x for r in series.rows]
    return render_loglog_svg(
        [
            ("matched-field count", [(x, r.s_equal_fields) for x, r in zip(xs, series.rows)]),
            ("grh shape", [(x, r.grh_shape) for x, r in zip(xs, series.rows)]),
            ("uncond shape", [(x, r.uncond_shape) for x, r in zip(xs, series.rows)]),
            ("log log x", [(x, r.loglog_shape) for x, r in zip(xs, series.rows)]),
        ],
        "Matched Frobenius fields vs bound shapes",
    )


def write_residue_csv(cfg: ExperimentConfig, scan: PairScan, path: str) -> None:
    """Per-cell residue frequencies vs the class-ratio prediction at x_max."""
    table = chebotarev_empirical(scan, cfg.q1, cfg.q2)
    li_x = log_integral(table.x)
    n = table.modulus
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "s", "t", "count", "predicted"])
        for d in range(n):
            if math.gcd(d, n) != 1:
                continue
            for s in range(n):
                for t in range(n):
                    predicted = float(class_ratio(cfg.q1, cfg.q2, d, s, t)) * li_x
                    w.writerow([d, s, t, table.counts[d][s][t], repr(predicted)])


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> GrowthSeries:
    """Full pipeline; writes match.csv, growth.csv, sieve.csv, growth.svg,
    and residue.csv when a modulus pair is configured.

    Every checkpoint (the growth series' bound shapes and the sieve window)
    and the modulus pair are checked before any trace is computed, so a
    config that must fail leaves no artifacts behind.
    """
    for x in cfg.x_checkpoints:
        check_bound_x(x)
    windows = [build_prime_window(checkpoint_z(cfg, x)) for x in cfg.x_checkpoints]
    if cfg.q1 is not None:
        residue_modulus(cfg.q1, cfg.q2)
    os.makedirs(out_dir, exist_ok=True)
    scan = pair_scan(cfg)
    write_match_csv(scan.records, os.path.join(out_dir, "match.csv"))

    series = growth_series(scan.records, cfg.x_checkpoints)
    write_growth_csv(series, os.path.join(out_dir, "growth.csv"))

    reports = [
        sieve_bound_v2(curve_pair_multiset(scan, x), window)
        for x, window in zip(cfg.x_checkpoints, windows)
    ]
    write_sieve_csv(reports, os.path.join(out_dir, "sieve.csv"))

    if cfg.q1 is not None:
        write_residue_csv(cfg, scan, os.path.join(out_dir, "residue.csv"))

    with open(os.path.join(out_dir, "growth.svg"), "w", encoding="utf-8") as fh:
        fh.write(growth_svg(series))
    return series
