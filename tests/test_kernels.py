import math

import numpy as np
import pytest

from dpratio.core import weighted_sums


def _fsum_oracle(y, s, w):
    # Exactly rounded sums of the same product columns.
    columns = (w, w * y, w * s, w * w, w * y * y, w * s * s, w * y * s)
    return np.array([math.fsum(col) for col in columns])


@pytest.mark.parametrize("n", [1, 777, 100_000])
def test_kernel_matches_fsum(n):
    rng = np.random.default_rng(n)
    y, s, w = rng.random(n), rng.random(n), rng.uniform(0.2, 5.0, n)
    np.testing.assert_allclose(weighted_sums(y, s, w), _fsum_oracle(y, s, w), rtol=1e-14, atol=0.0)


def test_permutation_changes_no_sum_beyond_contract():
    # The documented order-independence contract is 1e-12 relative.
    rng = np.random.default_rng(2)
    n = 100_000
    y, s, w = rng.random(n), rng.random(n), rng.uniform(0.2, 5.0, n)
    base = weighted_sums(y, s, w)
    perm = rng.permutation(n)
    again = weighted_sums(y[perm], s[perm], w[perm])
    np.testing.assert_allclose(again, base, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 128, 777, 5000, 100_000])
def test_matrix_rows_equal_their_own_sums(n):
    # The block data path sums a (rows, n) matrix; each row must get the
    # sums of the row on its own, bit for bit.
    rng = np.random.default_rng(n)
    y, s, w = rng.random((3, 3, n))
    y, s, w = (np.ascontiguousarray(a) for a in (y, s, w))
    block = weighted_sums(y, s, w)
    assert block.shape == (3, 7)
    for row in range(3):
        assert block[row].tobytes() == weighted_sums(y[row].copy(), s[row].copy(), w[row].copy()).tobytes()
