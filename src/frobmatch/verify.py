"""Release-gate verification: every closed formula against an independent
brute-force twin.  Any disagreement is a hard failure.

Suites
  gl2       matrix counts, group order, partition identity
  charsum   complete sums, Jacobi sums, triple-sum path agreement
  elliptic  trace formula vs point enumeration, the lane kernel (the one
            trace engine) vs exact sum, per curve and as one stream of
            every test curve
  sieve     square detection (int64 roots vs math.isqrt, up to and past
            2^53), the squarefree column vs scalar trial division,
            version-2 inequality, Legendre-matrix terms vs the jacobi_symbol
            pair loop, window density, character-sum path agreement
"""

from __future__ import annotations

import math
import os
import random

import numpy as np

from frobmatch.arith import primes_in, squarefree_part
from frobmatch.charsum import (
    CHARSUM_CSV_COLUMNS,
    charsum_verification_rows,
    jacobi_sum,
    jacobi_symbol,
    triple_sum,
)
from frobmatch.elliptic import CurveQ, ap_lanes, ap_naive, ap_stream
from frobmatch.frobenius import scan_pair, write_csv
from frobmatch.gl2 import (
    GL2_CSV_COLUMNS,
    order_H_formula,
    order_H_histogram,
    pair_class_count,
    verification_rows,
)
from frobmatch.sieve import (
    Multiset,
    _char_sums_over_pairs,
    _legendre_terms,
    build_prime_window,
    prime_char_sum,
    prime_char_sum_by_classes,
    sieve_bound_v2,
    square_count_exact,
)

TEST_CURVES = (CurveQ(0, 1), CurveQ(1, 0), CurveQ(2, 3), CurveQ(5, 7), CurveQ(-4, 4))
DEMO_PAIR = (CurveQ(2, 3), CurveQ(5, 7))


def count_points_enumeration(curve: CurveQ, p: int) -> int:
    """#E(F_p) by tabulating y^2 values and scanning x; no Legendre symbols."""
    sq = [0] * p
    for y in range(p):
        sq[y * y % p] += 1
    a, b = curve.A % p, curve.B % p
    affine = sum(sq[(x * x % p * x + a * x + b) % p] for x in range(p))
    return affine + 1


def verify_gl2(out_dir: str | None = None) -> tuple[bool, str]:
    rows = verification_rows()
    bad = sum(1 for r in rows if r[7] != "true")
    if out_dir:
        write_csv(os.path.join(out_dir, "gl2_verification.csv"), GL2_CSV_COLUMNS, rows)
    hf, hh = order_H_formula(3, 5), order_H_histogram(3, 5)
    order_ok = hf == hh and order_H_formula(3, 7) == order_H_histogram(3, 7)
    part = sum(
        pair_class_count(3, 5, d, s, t)
        for d in range(15)
        if math.gcd(d, 15) == 1
        for s in range(15)
        for t in range(15)
    )
    part_ok = part == hf
    ok = bad == 0 and order_ok and part_ok
    return ok, (
        f"gl2: {len(rows)} formula-vs-enumeration cells, {bad} mismatches; "
        f"order formula==histogram: {order_ok}; partition sum==order: {part_ok}"
    )


def verify_charsum(out_dir: str | None = None) -> tuple[bool, str]:
    rows = charsum_verification_rows(97)
    bad = sum(1 for r in rows if r[4] != "true")
    if out_dir:
        write_csv(os.path.join(out_dir, "charsum_verification.csv"), CHARSUM_CSV_COLUMNS, rows)
    jac_ok = all(
        jacobi_sum(q) == -jacobi_symbol(-1, q)
        for q in primes_in(2, 97)
        if q > 2
    )
    triple_ok = True
    odd = [q for q in primes_in(2, 31) if q > 2]
    for i, q1 in enumerate(odd):
        for q2 in odd[i + 1 :]:
            if triple_sum(q1, q2) != (q1 - 1) * (q2 - 1):  # raises on path mismatch
                triple_ok = False
    ok = bad == 0 and jac_ok and triple_ok
    return ok, (
        f"charsum: {len(rows)} brute-vs-closed cells, {bad} mismatches; "
        f"jacobi-sum identity: {jac_ok}; triple-sum equality: {triple_ok}"
    )


def verify_elliptic(p_max_naive: int = 1000, p_max_lanes: int = 10_000) -> tuple[bool, str]:
    """ap_naive against point enumeration below p_max_naive; the trace
    engine ap_lanes, one stream per curve, and ap_stream, one stream of every
    curve on their common good primes, against ap_naive below p_max_lanes."""
    mism_enum = mism_lanes = mism_stream = 0
    checked = 0
    naive = []
    for curve in TEST_CURVES:
        good = [p for p in primes_in(3, p_max_lanes) if curve.is_good(p)]
        checked += len(good)
        naive.append(dict(zip(good, (ap_naive(curve, p) for p in good))))
        for p, lane in zip(good, ap_lanes(curve, good)):
            a = naive[-1][p]
            if p < p_max_naive and a != p + 1 - count_points_enumeration(curve, p):
                mism_enum += 1
            mism_lanes += lane != a
    common = [p for p in primes_in(3, p_max_lanes) if all(c.is_good(p) for c in TEST_CURVES)]
    for table, row in zip(naive, ap_stream(list(TEST_CURVES), common)):
        mism_stream += sum(table[p] != t for p, t in zip(common, row))
    ok = mism_enum == mism_lanes == mism_stream == 0
    return ok, (
        f"elliptic: {checked} traces over {len(TEST_CURVES)} curves; "
        f"enumeration mismatches: {mism_enum}; lane-kernel mismatches: {mism_lanes}; "
        f"{len(common) * len(TEST_CURVES)} stream traces, mismatches: {mism_stream}"
    )


def verify_sieve() -> tuple[bool, str]:
    rng = random.Random(0xC0FFEE)
    window = build_prime_window(50)
    v2_ok = matrix_ok = True
    for _ in range(25):
        a = Multiset(tuple(rng.randrange(1, 10**9 + 1) for _ in range(1000)))
        rep = sieve_bound_v2(a, window)  # raises if the inequality fails
        v2_ok = v2_ok and rep.exact_square_count <= rep.bound_total
        sums, omega = _legendre_terms(a, window)
        by_division = [sum(e % q == 0 for q in window.primes) for e in a.elements.tolist()]
        matrix_ok = (
            matrix_ok
            and sums == _char_sums_over_pairs(a, window)
            and omega.tolist() == by_division
        )

    sample = [rng.randrange(1, 10**6 + 1) for _ in range(1000)]
    # around 2^53 float64 no longer holds every integer, so the root needs
    # its integer correction
    k = math.isqrt(1 << 53)
    sample += [r * r + d for r in range(k - 50, k + 50) for d in (-1, 0, 1)]
    by_op = square_count_exact(Multiset(tuple(sample)))
    by_scan = sum(1 for e in sample if math.isqrt(e) ** 2 == e)
    squares_ok = by_op == by_scan

    values = [rng.randrange(1, 4 * 10**7 + 1) for _ in range(1000)]
    # 2437 is the first prime above the column's cube root, so each m * 2437^2
    # leaves a square cofactor once the primes up to the cube root are out
    values += [m * 2437 * 2437 for m in (1, 3, 35, 2431)]
    column = squarefree_part(np.array(values, dtype=np.int64)).tolist()
    squarefree_ok = column == [squarefree_part(v) for v in values]

    density_ok = True
    for z in (10**3, 10**4, 10**5, 10**6):
        w = build_prime_window(z)
        expected = z / (2 * math.log(z))
        density_ok = density_ok and abs(w.P - expected) <= 0.25 * expected

    scan = scan_pair(*DEMO_PAIR, 10**4)
    direct = prime_char_sum(scan, 3, 5)
    classes = prime_char_sum_by_classes(scan, 3, 5)
    paths_ok = direct == classes

    ok = v2_ok and matrix_ok and squares_ok and squarefree_ok and density_ok and paths_ok
    return ok, (
        f"sieve: v2 inequality: {v2_ok}; "
        f"Legendre-matrix terms == jacobi_symbol pair loop and omega by division: "
        f"{matrix_ok}; square-count oracle: {squares_ok}; "
        f"squarefree column == scalar trial division: {squarefree_ok}; "
        f"window density within 25%: {density_ok}; "
        f"char-sum paths agree ({direct}): {paths_ok}"
    )


def verify_all(out_dir: str | None = None) -> int:
    """Run every suite; print one line each; 0 iff all pass."""
    failures = 0
    for name, fn in (
        ("gl2", lambda: verify_gl2(out_dir)),
        ("charsum", lambda: verify_charsum(out_dir)),
        ("elliptic", verify_elliptic),
        ("sieve", verify_sieve),
    ):
        try:
            ok, msg = fn()
        except Exception as e:  # an oracle disagreement raised inside a suite
            ok, msg = False, f"{name}: raised {e!r}"
        print(("PASS " if ok else "FAIL ") + msg)
        failures += not ok
    return 1 if failures else 0
