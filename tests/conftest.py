import math

import pytest

from logmeans import Herglotz, build_p_star, mobius


@pytest.fixture(scope="session")
def certified_suite():
    """Mix of certification routes: kernel sums and a lacunary exponential."""
    return [
        mobius(),
        Herglotz([(0.0, 0.5), (math.pi, 0.5)]),
        Herglotz([(0.3, 1.2), (2.0, 0.4), (4.4, 0.9)], im_p0=0.25),
        build_p_star(25),
    ]


@pytest.fixture(scope="session")
def dyadic_grid():
    """r_j = 1 - 2^-j, j = 1..20; every gap is an exact power of two."""
    return [1.0 - 2.0 ** -j for j in range(1, 21)]
