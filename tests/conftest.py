"""Shared fixtures, and the session's oracle table: every value of the two
brute-force oracles a test compares against, `ap_naive` and
`count_roots_enumeration`, is computed once per `(curve, p)` and then read
from `naive_ap` and `naive_roots`."""

import functools

import numpy as np
import pytest

from frobmatch import experiment
from frobmatch.elliptic import CurveQ, ap_naive
from frobmatch.frobenius import scan_pair
from frobmatch.verify import count_roots_enumeration

DEMO1 = CurveQ(2, 3)
DEMO2 = CurveQ(5, 7)


@functools.cache
def naive_ap(curve: CurveQ, p: int) -> int:
    """ap_naive(curve, p), from the session's oracle table."""
    return ap_naive(curve, p)


@functools.cache
def naive_roots(curve: CurveQ, p: int) -> int:
    """count_roots_enumeration(curve, p), from the session's oracle table."""
    return count_roots_enumeration(curve, p)


def naive_row(curve: CurveQ, primes: list[int]) -> list[int]:
    """[ap_naive(curve, p) for p in primes]: one curve's oracle traces."""
    return [naive_ap(curve, p) for p in primes]


def naive_traces(curves, primes: list[int]) -> np.ndarray:
    """The trace engine of the oracle: the (len(curves), len(primes)) int64
    table of ap_naive."""
    rows = [naive_row(c, primes) for c in curves]
    return np.array(rows, dtype=np.int64).reshape(len(curves), len(primes))


@pytest.fixture(scope="session")
def demo_traces_1e4():
    """PairScan of the demo pair up to 10^4, traces from the default engine
    (`ap_stream`)."""
    return scan_pair(DEMO1, DEMO2, 10_000)


@pytest.fixture
def recording_pool(monkeypatch):
    """The worker count of every pool `experiment` opens, in order: a
    stand-in executor maps in this process, so no process starts."""
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    return opened
