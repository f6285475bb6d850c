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

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from frobmatch.cache import cache_path, read_trace_cache, write_trace_cache
from frobmatch.config import ExperimentConfig
# nothing here calls ap_bsgs; the binding stays for perfbench's tracer, which wraps it
from frobmatch.elliptic import CurveQ, ap_bsgs, ap_lanes  # noqa: F401
from frobmatch.frobenius import (
    PairScan,
    chebotarev_empirical,
    residue_modulus,
    scan_pair,
    write_csv,
    write_match_csv,
)
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


@dataclass(frozen=True)
class GrowthRow:
    x: int
    s_equal_fields: int
    s_joint_00: int
    pi_good: int
    grh_shape: float
    uncond_shape: float
    loglog_shape: float


GROWTH_CSV_COLUMNS = [f.name for f in fields(GrowthRow)]


def compute_traces(
    curve: CurveQ,
    primes: list[int],
    threads: int = 1,
    cached: dict[int, int] | None = None,
) -> dict[int, int]:
    """{p: a_p} for every listed good prime, reusing `cached` entries; at
    most one worker process per block of missing primes."""
    traces = dict(cached or {})
    missing = [p for p in primes if p not in traces]
    unit = WORK_UNIT_PRIMES
    blocks = [missing[i : i + unit] for i in range(0, len(missing), unit)]
    trace_block = functools.partial(ap_lanes, curve)
    if threads > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(blocks))) as pool:
            results = list(pool.map(trace_block, blocks))
    else:
        results = map(trace_block, blocks)
    for blk, vals in zip(blocks, results):
        traces.update(zip(blk, vals))
    return traces


def _cached_traces(cfg: ExperimentConfig, curve: CurveQ, good: list[int]) -> list[int]:
    """[a_p for p in good] by compute_traces, through the curve's cache file
    if one is configured; the file is rewritten only when traces were added."""
    if cfg.cache_dir is None:
        traces = compute_traces(curve, good, cfg.threads)
    else:
        os.makedirs(cfg.cache_dir, exist_ok=True)  # an unusable dir fails before trace work
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
        return float(cfg.z_fixed)  # validated in [3, Z_FIXED_MAX] at parse time
    z = choose_z_grh(x) if cfg.z_policy == "grh" else choose_z_uncond(x)
    if z < 3:
        raise ValueError(
            f"z_policy={cfg.z_policy} gives z={z:.3g} < 3 at x={x}: the asymptotic "
            "choice needs astronomically large x; use z_policy=fixed:<z>"
        )
    return z


def growth_series(scan: PairScan, checkpoints: tuple[int, ...]) -> tuple[GrowthRow, ...]:
    ends = np.searchsorted(scan.p, checkpoints, side="right").tolist()
    matched, joint00 = scan.matched, (scan.a_p == 0) & (scan.b_p == 0)
    return tuple(
        GrowthRow(
            x=x,
            s_equal_fields=int(np.count_nonzero(matched[:k])),
            s_joint_00=int(np.count_nonzero(joint00[:k])),
            pi_good=k,
            grh_shape=theorem_bound_curves(x, "grh"),
            uncond_shape=theorem_bound_curves(x, "uncond"),
            loglog_shape=math.log(math.log(x)),
        )
        for x, k in zip(checkpoints, ends)
    )


def write_growth_csv(series: tuple[GrowthRow, ...], path: str) -> None:
    write_csv(path, GROWTH_CSV_COLUMNS, map(astuple, series))


def write_sieve_csv(reports: list[SieveReport], path: str) -> None:
    write_csv(path, SIEVE_CSV_COLUMNS, map(astuple, reports))


def growth_svg(series: tuple[GrowthRow, ...]) -> str:
    return render_loglog_svg(
        [
            ("matched-field count", [(r.x, r.s_equal_fields) for r in series]),
            ("grh shape", [(r.x, r.grh_shape) for r in series]),
            ("uncond shape", [(r.x, r.uncond_shape) for r in series]),
            ("log log x", [(r.x, r.loglog_shape) for r in series]),
        ],
        "Matched Frobenius fields vs bound shapes",
    )


def write_residue_csv(cfg: ExperimentConfig, scan: PairScan, path: str) -> None:
    """Per-cell residue frequencies vs the class-ratio prediction at x_max."""
    table = chebotarev_empirical(scan, cfg.q1, cfg.q2)
    rows = (cell + (pred,) for cell, pred in zip(table.cells(), table.predictions()))
    write_csv(path, ["d", "s", "t", "count", "predicted"], rows)


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> tuple[GrowthRow, ...]:
    """Full pipeline; writes match.csv, growth.csv, sieve.csv, growth.svg,
    and residue.csv when a modulus pair is configured.

    Every checkpoint (the growth series' bound shapes and the sieve window)
    and the modulus pair are checked before any trace is computed, so a
    config that must fail leaves no artifacts behind.  Each checkpoint's
    exact square count must equal its matched-field count; a mismatch raises
    ArithmeticError before sieve.csv is written.
    """
    for x in cfg.x_checkpoints:
        check_bound_x(x)
    windows = [build_prime_window(checkpoint_z(cfg, x)) for x in cfg.x_checkpoints]
    if cfg.q1 is not None:
        residue_modulus(cfg.q1, cfg.q2)
    os.makedirs(out_dir, exist_ok=True)
    scan = pair_scan(cfg)
    write_match_csv(scan, os.path.join(out_dir, "match.csv"))

    series = growth_series(scan, cfg.x_checkpoints)
    write_growth_csv(series, os.path.join(out_dir, "growth.csv"))

    reports = [
        sieve_bound_v2(curve_pair_multiset(scan, x), window)
        for x, window in zip(cfg.x_checkpoints, windows)
    ]
    # a pair product is a square exactly when D1 == D2: two routes to one count
    for row, rep in zip(series, reports):
        if rep.exact_square_count != row.s_equal_fields:
            raise ArithmeticError(
                f"square count {rep.exact_square_count} != matched fields "
                f"{row.s_equal_fields} at x={row.x}"
            )
    write_sieve_csv(reports, os.path.join(out_dir, "sieve.csv"))

    if cfg.q1 is not None:
        write_residue_csv(cfg, scan, os.path.join(out_dir, "residue.csv"))

    with open(os.path.join(out_dir, "growth.svg"), "w", encoding="utf-8") as fh:
        fh.write(growth_svg(series))
    return series
