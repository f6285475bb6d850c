"""Command-line entry point.

Subcommands
  ap A B p            trace of Frobenius at one prime
  match-count CONFIG  matched-field count at x_max, writes match.csv
  sieve-demo CONFIG   sieve reports for the configured pair, writes sieve.csv
  gl2-verify          matrix-count verification report
  charsum-verify      character-sum verification report
  verify-all          every verification suite
  experiment CONFIG   full growth experiment with all artifacts

Exit codes: 0 success, 1 verification failure, 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from frobmatch.arith import is_prime
from frobmatch.config import ConfigError, ExperimentConfig, load_config
from frobmatch.elliptic import CurveQ, ap_bsgs
from frobmatch.experiment import checkpoint_z, pair_scan, run_experiment, write_sieve_csv
from frobmatch.frobenius import write_match_csv
from frobmatch.sieve import (
    build_prime_window,
    curve_pair_multiset,
    sieve_bound_v1,
    sieve_bound_v2,
)
from frobmatch.verify import verify_all, verify_charsum, verify_gl2

EXIT_OK, EXIT_VERIFY, EXIT_CONFIG = 0, 1, 2

# `ap` checks primality by trial division, which sieves up to sqrt(p).
AP_P_MAX = 10**12


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="frobmatch", description=__doc__)
    ap.add_argument("--threads", type=int, default=None, help="worker processes")
    ap.add_argument("--cache", default=None, help="trace cache directory")
    ap.add_argument("--out", default=".", help="output directory for artifacts")

    # same flags accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    common.add_argument("--cache", default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)

    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ap", parents=[common], help="trace of Frobenius at one prime")
    p.add_argument("A", type=int)
    p.add_argument("B", type=int)
    p.add_argument("p", type=int)

    for name in ("match-count", "sieve-demo", "experiment"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("config")

    for name in ("gl2-verify", "charsum-verify", "verify-all"):
        sub.add_parser(name, parents=[common])
    return ap


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    overrides = {}
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError(f"--threads must be positive, got {args.threads}")
        overrides["threads"] = args.threads
    if args.cache is not None:
        overrides["cache_dir"] = args.cache
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        if args.command == "ap":
            if not (args.p <= AP_P_MAX and is_prime(args.p)):
                raise ConfigError(f"p={args.p} is not a prime <= {AP_P_MAX}")
            curve = CurveQ(args.A, args.B)
            if not curve.is_good(args.p):
                raise ConfigError(f"p={args.p} is a bad prime for {curve.label()}")
            print(ap_bsgs(curve, args.p))
            return EXIT_OK

        if args.command == "match-count":
            cfg = _load(args)
            scan = pair_scan(cfg)
            write_match_csv(scan, os.path.join(args.out, "match.csv"))
            print(
                f"matched fields: {scan.match_count} of {len(scan.p)} good primes "
                f"<= {cfg.x_max} ({len(scan.excluded)} primes excluded)"
            )
            return EXIT_OK

        if args.command == "sieve-demo":
            cfg = _load(args)
            window = build_prime_window(checkpoint_z(cfg, cfg.x_max))
            multiset = curve_pair_multiset(pair_scan(cfg), cfg.x_max)
            reports = []
            try:
                reports.append(sieve_bound_v1(multiset, window))
            except ValueError as e:
                print(f"version 1 skipped: {e}")
            reports.append(sieve_bound_v2(multiset, window))
            write_sieve_csv(reports, os.path.join(args.out, "sieve.csv"))
            rep = reports[-1]
            print(
                f"z={window.z} P={window.P} size={rep.size} squares={rep.exact_square_count} "
                f"bound={rep.bound_total:.3f}"
            )
            return EXIT_OK

        if args.command == "gl2-verify":
            ok, msg = verify_gl2(args.out)
            print(("PASS " if ok else "FAIL ") + msg)
            return EXIT_OK if ok else EXIT_VERIFY

        if args.command == "charsum-verify":
            ok, msg = verify_charsum(args.out)
            print(("PASS " if ok else "FAIL ") + msg)
            return EXIT_OK if ok else EXIT_VERIFY

        if args.command == "verify-all":
            return EXIT_VERIFY if verify_all(args.out) != 0 else EXIT_OK

        if args.command == "experiment":
            cfg = _load(args)
            series = run_experiment(cfg, args.out)
            last = series[-1]
            print(
                f"x={last.x}: matched={last.s_equal_fields} joint00={last.s_joint_00} "
                f"good primes={last.pi_good}; artifacts in {args.out}"
            )
            return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFY
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
