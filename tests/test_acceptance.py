"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every check is exact
integer equality unless stated otherwise; runtime caps are asserted where
the criterion fixes one.
"""

import math
import random
import time

import pytest

from frobmatch.arith import primes_in
from frobmatch.charsum import charsum_verification_rows, jacobi_sum, jacobi_symbol, triple_sum
from frobmatch.config import parse_config
from frobmatch.elliptic import ap_lanes, ap_naive
from frobmatch.experiment import run_experiment
from frobmatch.frobenius import product_is_square_check
from frobmatch.gl2 import (
    count_det_trace_bruteforce,
    count_det_trace_formula,
    count_det_trace_single,
    order_H_formula,
    order_H_histogram,
    pair_class_count,
)
from frobmatch.sieve import (
    Multiset,
    build_prime_window,
    curve_pair_multiset,
    prime_char_sum,
    prime_char_sum_by_classes,
    sieve_bound_v2,
)
from frobmatch.verify import DEMO_PAIR, TEST_CURVES, count_points_enumeration

E1, E2 = DEMO_PAIR


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gl2_formula_exactness():
    t0 = time.monotonic()
    mismatches = 0
    cells = 0
    for q in (3, 5, 7, 11, 13):
        for d in range(1, q):
            for t in range(q):
                cells += 1
                mismatches += count_det_trace_single(q, d, t) != count_det_trace_bruteforce(q, d, t)
    for q1, q2 in ((3, 5), (3, 7), (5, 7)):
        n = q1 * q2
        for d in range(1, n):
            if math.gcd(d, n) != 1:
                continue
            for t in range(n):
                cells += 1
                mismatches += count_det_trace_formula(q1, q2, d, t) != count_det_trace_bruteforce(
                    n, d, t
                )
    elapsed = time.monotonic() - t0
    _report(
        1,
        mismatches == 0 and elapsed <= 60,
        f"matrix-count formula vs enumeration: {cells} cells, {mismatches} mismatches, "
        f"{elapsed:.1f}s (cap 60s)",
    )


def test_criterion_2_group_order_agreement():
    t0 = time.monotonic()
    hf, hh = order_H_formula(3, 5), order_H_histogram(3, 5)
    partition = sum(
        pair_class_count(3, 5, d, s, t)
        for d in range(15)
        if math.gcd(d, 15) == 1
        for s in range(15)
        for t in range(15)
    )
    elapsed = time.monotonic() - t0
    _report(
        2,
        hf == hh and partition == hf and elapsed <= 120,
        f"order formula {hf} == histogram {hh}; partition sum {partition}; "
        f"{elapsed:.1f}s (cap 120s)",
    )


def test_criterion_3_character_sums():
    t0 = time.monotonic()
    rows = charsum_verification_rows(97)
    weil_ok = all(r[4] == "true" for r in rows)
    row51 = next(r for r in rows if r[0] == 5 and r[1] == 1)
    discrepancy_recorded = row51[2] == -1 and row51[5] == 0 and row51[6] == "false"
    jacobi_ok = all(
        jacobi_sum(q) == -jacobi_symbol(-1, q) for q in primes_in(2, 97) if q > 2
    )
    odd = [q for q in primes_in(2, 31) if q > 2]
    triple_ok = all(
        triple_sum(q1, q2) == (q1 - 1) * (q2 - 1)  # raises if the two paths disagree
        for i, q1 in enumerate(odd)
        for q2 in odd[i + 1 :]
    )
    elapsed = time.monotonic() - t0
    _report(
        3,
        weil_ok and discrepancy_recorded and jacobi_ok and triple_ok and elapsed <= 30,
        f"complete sums ({len(rows)} cells), jacobi-sum lemma, triple-sum equality over "
        f"{len(odd) * (len(odd) - 1) // 2} pairs, half-reduction discrepancy at (5,1) recorded; "
        f"{elapsed:.1f}s (cap 30s)",
    )


def test_criterion_4_trace_correctness():
    t0 = time.monotonic()
    enum_bad = lanes_bad = hasse_bad = 0
    n_traces = 0
    for curve in TEST_CURVES:
        good = [p for p in primes_in(3, 10_000) if curve.is_good(p)]
        n_traces += len(good)
        for p, lane in zip(good, ap_lanes(curve, good)):
            naive = ap_naive(curve, p)
            if naive * naive > 4 * p:
                hasse_bad += 1
            if p < 1000 and p + 1 - naive != count_points_enumeration(curve, p):
                enum_bad += 1
            if lane != naive:
                lanes_bad += 1
    elapsed = time.monotonic() - t0
    _report(
        4,
        enum_bad == lanes_bad == hasse_bad == 0 and elapsed <= 120,
        f"{n_traces} traces over {len(TEST_CURVES)} curves: enumeration mismatches {enum_bad}, "
        f"accelerator mismatches {lanes_bad}, Hasse violations {hasse_bad}; "
        f"{elapsed:.1f}s (cap 120s)",
    )


def test_criterion_5_square_detection_equivalence(demo_traces_1e4):
    scan = demo_traces_1e4
    columns = (scan.p, scan.a_p, scan.b_p, scan.D1, scan.D2, scan.matched)
    bad = sum(
        1
        for p, a, b, d1, d2, matched in zip(*(c.tolist() for c in columns))
        if not (matched == product_is_square_check(p, a, b) == (d1 == d2))
    )
    _report(
        5,
        bad == 0,
        f"three-way square-detection agreement on {len(scan.p)} good primes: "
        f"{bad} disagreements",
    )


def test_criterion_6_sieve_v2_inequality(demo_traces_1e4):
    rng = random.Random(0x5EED)
    window50 = build_prime_window(50)
    violations = 0
    for _ in range(100):
        a = Multiset(tuple(rng.randrange(1, 10**9 + 1) for _ in range(1000)))
        rep = sieve_bound_v2(a, window50)  # raises on violation
        violations += rep.exact_square_count > rep.bound_total
    curve_a = curve_pair_multiset(demo_traces_1e4, 10_000)
    rep = sieve_bound_v2(curve_a, build_prime_window(30))
    violations += rep.exact_square_count > rep.bound_total
    _report(
        6,
        violations == 0,
        f"100 random multisets at z=50 plus curve multiset (|A|={len(curve_a)}, "
        f"S={rep.exact_square_count} <= {rep.bound_total:.2f}) at z=30: {violations} violations",
    )


def test_criterion_7_char_sum_cross_path(demo_traces_1e4):
    direct = prime_char_sum(demo_traces_1e4, 3, 5)
    classes = prime_char_sum_by_classes(demo_traces_1e4, 3, 5)
    _report(
        7,
        direct == classes,
        f"direct sum {direct} == residue-class decomposition {classes} at (3,5), x=1e4",
    )


def _experiment_config(x_max, checkpoints, threads, cache_dir):
    return parse_config(
        "[curve1]\nA = 2\nB = 3\n[curve2]\nA = 5\nB = 7\n[experiment]\n"
        f"x_max = {x_max}\nx_checkpoints = {checkpoints}\n"
        f"z_policy = fixed:30\nthreads = {threads}\ncache_dir = {cache_dir}\n"
    )


def test_criterion_8_growth_experiment(tmp_path):
    t0 = time.monotonic()
    cfg = _experiment_config(10**6, "10000, 100000, 1000000", 8, tmp_path / "cache")
    series = run_experiment(cfg, str(tmp_path / "out"))
    elapsed = time.monotonic() - t0
    ratios = [r.s_equal_fields / r.pi_good for r in series]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    _report(
        8,
        decreasing and ratios[-1] < 0.5 and elapsed <= 600,
        f"x=1e6 with 8 workers in {elapsed:.0f}s (cap 600s); matched/good ratios "
        + " > ".join(f"{r:.5f}" for r in ratios),
    )


def test_criterion_9_determinism(tmp_path):
    x = 120_000  # enough good primes that the 8-worker run spans several blocks
    outputs = {}
    for name, threads, cache in (
        ("t1-cold", 1, "cache-a"),
        ("t8-cold", 8, "cache-b"),
        ("t8-warm", 8, "cache-b"),
    ):
        cfg = _experiment_config(x, f"{x // 2}, {x}", threads, tmp_path / cache)
        out = tmp_path / name
        run_experiment(cfg, str(out))
        outputs[name] = {
            f: (out / f).read_bytes()
            for f in ("match.csv", "growth.csv", "sieve.csv", "growth.svg")
        }
    ok = outputs["t1-cold"] == outputs["t8-cold"] == outputs["t8-warm"]
    _report(
        9,
        ok,
        f"byte-identical artifacts across threads 1 vs 8 and cold vs warm cache at x={x}",
    )
