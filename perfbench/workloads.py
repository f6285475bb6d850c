"""Workload definitions: curve pairs, experiment configs and the seed mapping.

Every input the benchmark hands to frobmatch is generated here from the
workload name and the seed, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Non-CM pairs: with A, B > 0 the j-invariant lies strictly between 0 and
# 1728, where no rational CM j-invariant exists.  The j-invariants within each
# pair differ, so no pair is a pair of twists.  Seed 0 is the demo pair.
PAIRS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((2, 3), (5, 7)),
    ((1, 1), (3, 5)),
    ((1, 3), (4, 1)),
    ((2, 1), (3, 7)),
)

X_MAX = 200_000
CHECKPOINTS = (20_000, 50_000, 100_000, 200_000)
Q1, Q2 = 3, 5
COLD_Z = 30
WARM_Z = 100


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `z` is the sieve window of the timed run; `warm` means setup fills the
    trace cache with a cold `COLD_Z` run before timing, and the timed runs
    reuse that cache instead of starting from an empty one.
    """

    name: str
    threads: int
    z: int
    warm: bool


def workloads() -> dict[str, Workload]:
    return {
        w.name: w
        for w in (
            Workload("cold-serial", threads=1, z=COLD_Z, warm=False),
            Workload("cold-parallel", threads=nproc(), z=COLD_Z, warm=False),
            Workload("warm-resweep", threads=1, z=WARM_Z, warm=True),
        )
    }


def pair_for_seed(seed: int) -> tuple[tuple[int, int], tuple[int, int]]:
    return PAIRS[seed % len(PAIRS)]


def pair_label(pair: tuple[tuple[int, int], tuple[int, int]]) -> str:
    (a1, b1), (a2, b2) = pair
    return f"{a1},{b1}/{a2},{b2}"


def config_text(pair, z: int, threads: int, cache_dir: str) -> str:
    (a1, b1), (a2, b2) = pair
    return (
        f"[curve1]\nA = {a1}\nB = {b1}\n\n"
        f"[curve2]\nA = {a2}\nB = {b2}\n\n"
        "[experiment]\n"
        f"x_max = {X_MAX}\n"
        f"x_checkpoints = {', '.join(map(str, CHECKPOINTS))}\n"
        f"z_policy = fixed:{z}\n"
        f"q1 = {Q1}\nq2 = {Q2}\n"
        f"cache_dir = {cache_dir}\n"
        f"threads = {threads}\n"
    )
