import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread, set before anything imports numpy: the test
# oracles' small eigvals, lstsq, det, inv and expm calls gain nothing from
# threads, and threaded they run several times slower beside another
# busy process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

from chernweil.simplicial import SimplexId, SimplicialMap, standard_simplex, two_disk_sphere


def _v(d, i):
    return SimplexId(d, i)


@pytest.fixture(scope="session")
def tds():
    return two_disk_sphere()


@pytest.fixture(scope="session")
def inclusion_of_north(tds):
    """The inclusion of the N triangle, Delta^2 -> two_disk_sphere."""
    d2 = standard_simplex(2)
    return SimplicialMap(
        d2,
        tds,
        {_v(0, i): (_v(0, i), ()) for i in range(3)}
        | {_v(1, i): (_v(1, i), ()) for i in range(3)}
        | {_v(2, 0): (_v(2, 0), ())},
    )


@pytest.fixture(scope="session")
def fold_map(tds):
    """two_disk_sphere -> Delta^2 identifying N and S with the top cell."""
    d2 = standard_simplex(2)
    return SimplicialMap(
        tds,
        d2,
        {_v(0, i): (_v(0, i), ()) for i in range(3)}
        | {_v(1, i): (_v(1, i), ()) for i in range(3)}
        | {_v(2, 0): (_v(2, 0), ()), _v(2, 1): (_v(2, 0), ())},
    )


@pytest.fixture(scope="session")
def swap_map(tds):
    """The orientation-reversing self-map of two_disk_sphere swapping N and S."""
    return SimplicialMap(
        tds,
        tds,
        {_v(0, i): (_v(0, i), ()) for i in range(3)}
        | {_v(1, i): (_v(1, i), ()) for i in range(3)}
        | {_v(2, 0): (_v(2, 1), ()), _v(2, 1): (_v(2, 0), ())},
    )


@pytest.fixture(scope="session")
def collapse_map():
    """Delta^2 -> Delta^1 collapsing along the vertex map (0, 1, 1)."""
    d2, d1 = standard_simplex(2), standard_simplex(1)
    return SimplicialMap(
        d2,
        d1,
        {
            _v(0, 0): (_v(0, 0), ()),
            _v(0, 1): (_v(0, 1), ()),
            _v(0, 2): (_v(0, 1), ()),
            _v(1, 0): (_v(1, 0), ()),
            _v(1, 1): (_v(1, 0), ()),
            _v(1, 2): (_v(0, 1), (0,)),
            _v(2, 0): (_v(1, 0), (1,)),
        },
    )
