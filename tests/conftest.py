import pytest

from frobmatch import experiment
from frobmatch.elliptic import CurveQ, ap_naive
from frobmatch.frobenius import scan_pair

DEMO1 = CurveQ(2, 3)
DEMO2 = CurveQ(5, 7)


def naive_traces(curve: CurveQ, primes: list[int]) -> list[int]:
    """The batch trace engine of the oracle: ap_naive at every prime."""
    return [ap_naive(curve, p) for p in primes]


@pytest.fixture(scope="session")
def demo_traces_1e4():
    """PairScan of the demo pair up to 10^4, traces from the default engine
    (`ap_lanes`)."""
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
