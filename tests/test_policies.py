import math

import numpy as np
import pytest

from secrates import RatePolicy


def test_constant():
    p = RatePolicy.constant(1.5)
    assert p.rate_at(0.0) == 1.5
    assert np.array_equal(p.rate_at(np.array([0.0, 7.0])), [1.5, 1.5])
    assert [a.tolist() for a in p.cells()] == [[0.0], [np.inf], [1.5]]


def test_tabulated_lookup():
    p = RatePolicy.tabulated([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
    assert p.rate_at(0.5) == 0.1
    assert p.rate_at(1.0) == 0.2  # left-closed cells
    assert p.rate_at(100.0) == 0.3
    assert p.cells()[2].tolist() == [0.1, 0.2, 0.3]


def test_tabulated_gap_below_first_knot():
    p = RatePolicy.tabulated([1.0, 2.0], [0.5, 0.7])
    assert p.rate_at(0.0) == 0.5
    lo, hi, r = p.cells()
    assert (lo[0], hi[0], r[0]) == (0.0, 1.0, 0.5)
    assert (lo[-1], hi[-1], r[-1]) == (2.0, np.inf, 0.7)


def test_validation():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            RatePolicy.constant(bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            RatePolicy.tabulated([0.0, 1.0], [1.0, bad])
        with pytest.raises(ValueError):
            RatePolicy.tabulated([0.0, bad], [1.0, 1.0])
    with pytest.raises(ValueError):
        RatePolicy.tabulated([1.0, 1.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        RatePolicy.tabulated([0.0, 1.0], [0.1, -0.2])
