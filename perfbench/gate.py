"""Correctness gate: artifact digests against recorded goldens, and a seeded
sample of match.csv rows re-derived with the brute-force oracles.

The goldens in `golden_digests.json` were recorded by `record_goldens.py`
from the package as it stood when the benchmark was defined.  A change that
alters any artifact byte fails the gate on every workload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from pathlib import Path

from frobmatch.arith import is_perfect_square, squarefree_decompose
from frobmatch.elliptic import ap_naive

ARTIFACTS = ("match.csv", "growth.csv", "sieve.csv", "residue.csv", "growth.svg")
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"


def file_sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def artifact_digests(out_dir: str) -> dict[str, str | None]:
    return {name: file_sha256(os.path.join(out_dir, name)) for name in ARTIFACTS}


def digest_mismatches(out_dir: str, expected: dict[str, str]) -> list[str]:
    """Artifact names whose digest differs from `expected` (or is missing)."""
    got = artifact_digests(out_dir)
    return [name for name in ARTIFACTS if got[name] is None or got[name] != expected.get(name)]


def load_goldens() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sample_rows(match_csv: str, seed: int, n_random: int = 4, n_matched: int = 2) -> list[dict]:
    """A seeded sample of match.csv rows: `n_random` from all rows plus
    `n_matched` from the matched ones, so both sides of the square test are
    exercised."""
    with open(match_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rng = random.Random(f"perfbench-sample:{seed}")
    picked = rng.sample(rows, min(n_random, len(rows)))
    matched = [r for r in rows if r["matched"] == "true" and r not in picked]
    picked += rng.sample(matched, min(n_matched, len(matched)))
    return picked


def check_row(row: dict, curve1, curve2) -> list[str]:
    """Problems found re-deriving one match.csv row with the oracles; empty
    when the row is right."""
    p, a, b = int(row["p"]), int(row["a_p"]), int(row["b_p"])
    problems = []
    if ap_naive(curve1, p) != a:
        problems.append(f"a_p at p={p}")
    if ap_naive(curve2, p) != b:
        problems.append(f"b_p at p={p}")
    if squarefree_decompose(4 * p - a * a).D != int(row["D1"]):
        problems.append(f"D1 at p={p}")
    if squarefree_decompose(4 * p - b * b).D != int(row["D2"]):
        problems.append(f"D2 at p={p}")
    matched = is_perfect_square((4 * p - a * a) * (4 * p - b * b))
    if ("true" if matched else "false") != row["matched"]:
        problems.append(f"matched at p={p}")
    return problems
