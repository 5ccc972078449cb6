import sys
from pathlib import Path

import pytest

from segcover.core import Instance

sys.path.insert(0, str(Path(__file__).parent))

DATA_DIR = Path(__file__).parent / "data"

# Reference 12-element instance used throughout: seven subsets, optimum 3.
# Elements are written 1-based here (as in instance files) and shifted down.
TWELVE_SUBSETS_1BASED = (
    (1, 2, 5, 6, 9),
    (3, 4, 7, 8),
    (2, 3, 4),
    (2, 3, 6, 7, 9, 10),
    (4, 8, 11),
    (9, 10, 11, 12),
    (1, 5),
)


def make_instance(n: int, subsets_1based) -> Instance:
    return Instance(n, [sum(1 << (e - 1) for e in set(s)) for s in subsets_1based])


@pytest.fixture
def twelve() -> Instance:
    return make_instance(12, TWELVE_SUBSETS_1BASED)


@pytest.fixture
def twelve_file() -> bytes:
    return (DATA_DIR / "example12.scp").read_bytes()
