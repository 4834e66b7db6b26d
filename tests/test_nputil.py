"""``repro.nputil`` against the ``np.unique`` spellings it replaces.

Each helper must return what ``np.unique`` returns: the same values,
the same inverse, and the same dtype, including on empty, single,
already-sorted, reverse-sorted, all-equal, negative and narrow-integer
inputs.
"""

import numpy as np
import pytest

from repro import nputil

CASES = {
    "empty": np.empty(0, dtype=np.int64),
    "single": np.array([7], dtype=np.int64),
    "sorted": np.array([1, 1, 2, 5, 5, 5, 9], dtype=np.int64),
    "reverse-sorted": np.array([9, 5, 5, 5, 2, 1, 1], dtype=np.int64),
    "all-equal": np.full(6, 3, dtype=np.int64),
    "negative": np.array([-4, 3, -4, 0, -1, 3, 0], dtype=np.int64),
    "int8": np.array([5, -128, 127, 5, 0, -128], dtype=np.int8),
    "random": np.random.default_rng(3).integers(-50, 50, 500),
}


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", CASES)
def test_unique_equals_np_unique(name):
    a = CASES[name]
    assert_same(nputil.unique(a), np.unique(a))


@pytest.mark.parametrize("name", CASES)
def test_unique_inverse_equals_np_unique(name):
    a = CASES[name]
    values, inverse = nputil.unique_inverse(a)
    want_values, want_inverse = np.unique(a, return_inverse=True)
    assert_same(values, want_values)
    assert_same(inverse, want_inverse.ravel())
    np.testing.assert_array_equal(values[inverse], a)


@pytest.mark.parametrize("name", CASES)
def test_dedup_sorted_equals_np_unique_on_sorted_input(name):
    a = np.sort(CASES[name])
    assert_same(nputil.dedup_sorted(a), np.unique(a))
