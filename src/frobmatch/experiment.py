"""Experiment orchestration: cached parallel trace computation, growth
series against the bound shapes, sieve reports per checkpoint, and CSV/SVG
artifacts.

Traces travel as int64 columns: each curve's cache file is read as (p, a_p)
columns, looked up by `searchsorted`, and handed to `scan_pair` as one
(curves x primes) int64 trace table.  The primes missing from either
curve's columns go through the lane kernel as one stream of lanes, one per
cell of the (curves x primes) table it fills.  With more than one worker the
primes are cut into at most that many segments of about equal work, handed
to one process pool (the kernel runs Python between its many numpy calls,
so threads would contend for the interpreter lock); results are merged in
segment order, so output is a function of the config alone, independent of
worker count and cache state.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np

from frobmatch.cache import cache_path, read_trace_cache, write_trace_cache
from frobmatch.config import ExperimentConfig
# nothing here calls ap_bsgs; the binding stays for perfbench's tracer, which wraps it
from frobmatch.elliptic import CurveQ, ap_bsgs, ap_stream  # noqa: F401
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

# The fewest primes a segment gets: each one costs a worker process and ends
# in a partial kernel batch.  On a 2-core VM two workers break even with one
# at about 3,000 primes of a pair (the first ones), and save 14% at 4,096 and
# 26% at 8,192; two segments start at 4,096 primes.
SEGMENT_MIN_PRIMES = 2048


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


def _segments(primes: list[int], k: int) -> list[list[int]]:
    """`primes` cut into at most k runs of about equal kernel work (a lane's
    tables grow like p^(1/4)), each of at least SEGMENT_MIN_PRIMES primes
    unless there is only one."""
    k = max(1, min(k, len(primes) // SEGMENT_MIN_PRIMES))
    if k == 1:
        return [primes]
    work = np.cumsum(np.array(primes, dtype=np.float64) ** 0.25)
    cuts = np.searchsorted(work, work[-1] * np.arange(1, k) / k).tolist()
    return [primes[i:j] for i, j in zip([0] + cuts, cuts + [len(primes)])]


def _find(cp: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, hit): where each value of `p` sorts into the non-empty ascending
    column `cp`, and whether it is there."""
    i = np.searchsorted(cp, p)
    return i, cp.take(i, mode="clip") == p


def compute_traces(
    curves: Sequence[CurveQ],
    primes: list[int],
    threads: int = 1,
    cached: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """The (len(curves), len(primes)) int64 table of a_p, reusing the
    `cached` (p, a_p) columns, one pair per curve with p ascending: a list
    of any other length raises ValueError before any work.  The primes
    missing from any curve's columns go to `ap_stream` with the curves that
    miss some, as one stream or as at most `threads` segments in one process
    pool; a fully cached call starts neither."""
    if cached is not None and len(cached) != len(curves):
        raise ValueError(f"{len(cached)} cached column pairs for {len(curves)} curves; need one per curve")
    traces = np.empty((len(curves), len(primes)), np.int64)
    if cached and any(len(cp) for cp, _ in cached):
        p = np.array(primes, dtype=np.int64)
        gaps = []
        for k, (cp, ca) in enumerate(cached):
            hit = np.zeros(len(p), bool)
            if len(cp):
                i, hit = _find(cp, p)
                traces[k] = ca.take(i, mode="clip")  # rows at a gap are recomputed below
            gaps.append(~hit)
        todo = [k for k, gap in enumerate(gaps) if gap.any()]
        if not todo:
            return traces
        at = np.flatnonzero(np.logical_or.reduce([gaps[k] for k in todo]))
        missing = p[at].tolist()
    else:
        # nothing cached: no alignment, every curve computes every prime
        todo, at, missing = range(len(curves)), None, primes
    segments = _segments(missing, threads)
    trace_segment = functools.partial(ap_stream, [curves[k] for k in todo])
    if len(segments) > 1:
        with ProcessPoolExecutor(max_workers=len(segments)) as pool:
            results = list(pool.map(trace_segment, segments))
    else:
        results = map(trace_segment, segments)
    end = 0
    for segment, table in zip(segments, results):
        start, end = end, end + len(segment)
        cols = slice(start, end) if at is None else at[start:end]
        for k, row in zip(todo, table):
            traces[k, cols] = row
    return traces


def _merged(cp: np.ndarray, ca: np.ndarray, p: np.ndarray, a: np.ndarray):
    """The cached columns (cp, ca) with the rows of (p, a) they lack inserted
    in order, or None when they lack none."""
    if not len(cp):  # a cold cache: the new rows are the file
        return (p, a) if len(p) else None
    i, hit = _find(cp, p)
    if hit.all():
        return None
    new = ~hit
    return np.insert(cp, i[new], p[new]), np.insert(ca, i[new], a[new])


def _cached_traces(cfg: ExperimentConfig, curves: Sequence[CurveQ], good: list[int]) -> np.ndarray:
    """The (len(curves), len(good)) int64 trace table, by one compute_traces
    call, through the curves' cache files if a cache is configured; a file
    is rewritten only when its curve missed some prime, with its old rows
    kept.  With `cfg` bound, a trace engine for `scan_pair`."""
    if cfg.cache_dir is None:
        return compute_traces(curves, good, cfg.threads)
    os.makedirs(cfg.cache_dir, exist_ok=True)  # an unusable dir fails before trace work
    paths = [cache_path(cfg.cache_dir, c) for c in curves]
    cached = [read_trace_cache(path, c) for path, c in zip(paths, curves)]
    traces = compute_traces(curves, good, cfg.threads, cached)
    p = np.array(good, dtype=np.int64)
    for path, curve, (cp, ca), a in zip(paths, curves, cached, traces):
        merged = _merged(cp, ca, p, a)
        if merged is not None:
            write_trace_cache(path, curve, *merged)
    return traces


def pair_scan(cfg: ExperimentConfig) -> PairScan:
    """The configured pair's PairScan at x_max, traces cached and parallel."""
    engine = functools.partial(_cached_traces, cfg)
    return scan_pair(cfg.curve1, cfg.curve2, cfg.x_max, engine)


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
    preds = table.predictions()
    # csv.writer writes a float as str(float): format each distinct one once
    text = {f: str(f) for f in set(preds)}
    rows = (cell + (text[f],) for cell, f in zip(table.cells(), preds))
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
