import math

import numpy as np
import pytest

from dpratio.core import Profile, weighted_sums


def _fsum_oracle(y, s, w):
    # Exactly rounded sums of the same product columns.
    columns = (w, w * y, w * s, w * w, w * y * y, w * s * s, w * y * s)
    return np.array([math.fsum(col) for col in columns])


@pytest.mark.parametrize("n", [1, 777, 100_000])
def test_kernel_matches_fsum(n):
    rng = np.random.default_rng(n)
    y, s, w = rng.random(n), rng.random(n), rng.uniform(0.2, 5.0, n)
    np.testing.assert_allclose(weighted_sums(y, s, w, Profile.FULL7), _fsum_oracle(y, s, w), rtol=1e-14, atol=0.0)


def test_permutation_changes_no_sum_beyond_contract():
    # The documented order-independence contract is 1e-12 relative.
    rng = np.random.default_rng(2)
    n = 100_000
    y, s, w = rng.random(n), rng.random(n), rng.uniform(0.2, 5.0, n)
    base = weighted_sums(y, s, w, Profile.FULL7)
    perm = rng.permutation(n)
    again = weighted_sums(y[perm], s[perm], w[perm], Profile.FULL7)
    np.testing.assert_allclose(again, base, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 128, 777, 5000, 100_000])
def test_matrix_rows_equal_their_own_sums(n):
    # The block data path sums a (rows, n) matrix; each row must get the
    # sums of the row on its own, bit for bit.
    rng = np.random.default_rng(n)
    y, s, w = rng.random((3, 3, n))
    y, s, w = (np.ascontiguousarray(a) for a in (y, s, w))
    block = weighted_sums(y, s, w, Profile.FULL7)
    assert block.shape == (3, 7)
    for row in range(3):
        alone = weighted_sums(y[row].copy(), s[row].copy(), w[row].copy(), Profile.FULL7)
        assert block[row].tobytes() == alone.tobytes()


def _seven_sums(y, s, w):
    # The reference: every product formed, unit weights included, and all seven sums reduced.
    wy, ws = w * y, w * s
    columns = (w, wy, ws, w * w, wy * y, ws * s, wy * s)
    return np.stack([np.add.reduce(col, axis=-1) for col in columns], axis=-1)


@pytest.mark.parametrize("profile", list(Profile))
@pytest.mark.parametrize("shape", [(1,), (777,), (5000,), (3, 1), (3, 777), (3, 5000)])
def test_profile_kernel_equals_the_seven_sums_mirrored(profile, shape):
    # Reducing only the released sums, and for unit weights skipping every
    # product by a weight, changes no bit of any sum.
    rng = np.random.default_rng(shape)
    s = rng.random(shape)
    y = (rng.random(shape) < s).astype(float) if profile is not Profile.FULL7 else rng.random(shape)
    w = np.ones(shape) if profile is Profile.UNWEIGHTED5 else rng.uniform(1 / 3, 3.0, shape)
    want = _seven_sums(y, s, w)
    profile.mirror(want)
    got = weighted_sums(y, s, None if profile is Profile.UNWEIGHTED5 else w, profile)
    assert got.shape == shape[:-1] + (7,)
    assert got.tobytes() == want.tobytes()
