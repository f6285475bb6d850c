import pytest

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
