"""Counting matched Frobenius fields for pairs of elliptic curves over Q.

Exact trace-of-Frobenius tables, GL2 conjugacy-class counts, complete
quadratic character sums, and square-sieve bound evaluation, each backed by
independent brute-force cross-checks, plus a CLI experiment harness.
"""

from frobmatch.arith import (
    SquarefreeDecomposition,
    is_perfect_square,
    is_prime,
    jacobi_symbol,
    log_integral,
    primes_in,
    squarefree_decompose,
    squarefree_part,
)
from frobmatch.charsum import jacobi_sum, triple_sum, weil_sum_bruteforce, weil_sum_closed
from frobmatch.elliptic import CurveQ, ap_bsgs, ap_naive, ap_stream
from frobmatch.frobenius import (
    FrobeniusFieldTag,
    PairScan,
    chebotarev_empirical,
    count_fixed_field,
    count_fixed_trace,
    count_joint_traces,
    frobenius_field,
    product_is_square_check,
    scan_pair,
)
from frobmatch.gl2 import (
    class_ratio,
    count_det_trace_bruteforce,
    count_det_trace_formula,
    order_H_formula,
    order_H_histogram,
)
from frobmatch.sieve import (
    Multiset,
    SievePrimeSet,
    SieveReport,
    build_prime_window,
    choose_z_grh,
    choose_z_uncond,
    curve_pair_multiset,
    prime_char_sum,
    sieve_bound_v1,
    sieve_bound_v2,
    square_count_exact,
    theorem_bound_curves,
)

__all__ = [
    "SquarefreeDecomposition",
    "CurveQ",
    "FrobeniusFieldTag",
    "Multiset",
    "PairScan",
    "SievePrimeSet",
    "SieveReport",
    "ap_bsgs",
    "ap_naive",
    "ap_stream",
    "build_prime_window",
    "chebotarev_empirical",
    "choose_z_grh",
    "choose_z_uncond",
    "class_ratio",
    "count_det_trace_bruteforce",
    "count_det_trace_formula",
    "count_fixed_field",
    "count_fixed_trace",
    "count_joint_traces",
    "curve_pair_multiset",
    "frobenius_field",
    "is_perfect_square",
    "is_prime",
    "jacobi_sum",
    "jacobi_symbol",
    "log_integral",
    "order_H_formula",
    "order_H_histogram",
    "prime_char_sum",
    "primes_in",
    "product_is_square_check",
    "scan_pair",
    "sieve_bound_v1",
    "sieve_bound_v2",
    "square_count_exact",
    "squarefree_decompose",
    "squarefree_part",
    "theorem_bound_curves",
    "triple_sum",
    "weil_sum_bruteforce",
    "weil_sum_closed",
]
