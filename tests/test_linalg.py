"""Shared planar helpers: the rotation fit and the package exports."""

import numpy as np
import pytest

import vortexlab
from vortexlab import aligned_distance, rotate_all


@pytest.mark.parametrize("batched", ["a", "b", "both"])
def test_batched_aligned_distance_equals_row_by_row_calls(batched):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 8))
    b = rotate_all(a, rng.uniform(0.0, 2 * np.pi, size=6)) \
        + 1e-2 * rng.normal(size=(6, 8))
    if batched == "a":
        b = b[0]
    elif batched == "b":
        a = a[0]
    rows = np.broadcast_arrays(a, b)
    expected = [aligned_distance(x, y) for x, y in zip(*rows)]
    assert np.array_equal(aligned_distance(a, b), expected)


def test_exports_resolve_and_are_unique():
    names = vortexlab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(vortexlab, n)] == []
