import pytest

from frobmatch.elliptic import CurveQ
from frobmatch.frobenius import scan_pair

DEMO1 = CurveQ(2, 3)
DEMO2 = CurveQ(5, 7)


@pytest.fixture(scope="session")
def demo_traces_1e4():
    """PairScan of the demo pair up to 10^4."""
    return scan_pair(DEMO1, DEMO2, 10_000)
