import random

import numpy as np
import pytest

from repmoduli.draws import choice, integers, normal, uniform

N = 100_000


def _all(rng):
    return (uniform(rng, (3, 4)), normal(rng, (2, 5, 5)),
            integers(rng, -2, 7, 50), choice(rng, [1, 0, 2], (4, 6)))


def test_same_seed_same_arrays():
    a, b, c = _all(random.Random(5)), _all(random.Random(5)), \
        _all(random.Random(6))
    for x, y, z in zip(a, b, c):
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)


def test_uniform_is_the_top_53_bits_of_each_8_bytes():
    ref = random.Random(9)
    expect = [(int.from_bytes(ref.randbytes(8), "little") >> 11) / 2 ** 53
              for _ in range(6)]
    assert uniform(random.Random(9), 6).tolist() == expect


def test_draws_in_parts_equal_one_draw():
    # what the stacked gauge draws rely on: m values then n are the m + n
    # values, and so are normals of even counts
    for draw in (uniform, normal):
        rng, ref = random.Random(2), random.Random(2)
        parts = np.concatenate([draw(rng, 4), draw(rng, (3, 2))], axis=None)
        assert np.array_equal(parts, draw(ref, 10))
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("shape", [(), 7, (3, 4), (2, 0, 3), (2, 3, 5)])
def test_shapes_and_ranges(shape):
    rng = random.Random(3)
    expect = np.empty(shape).shape
    u, z = uniform(rng, shape), normal(rng, shape)
    k, c = integers(rng, -2, 3, shape), choice(rng, [0, 2, 0, 1, 0], shape)
    for x in (u, z, k, c):
        assert x.shape == expect
    assert ((0 <= u) & (u < 1)).all()
    assert np.isfinite(z).all()
    assert k.dtype.kind == c.dtype.kind == "i"
    assert ((-2 <= k) & (k < 3)).all()
    assert np.isin(c, [1, 3]).all()


def test_normal_moments_within_five_standard_errors():
    z = normal(random.Random(11), N)
    assert abs(z.mean()) < 5 / np.sqrt(N)
    assert abs(z.var() - 1) < 5 * np.sqrt(2 / N)
    # the cosine and sine halves of each pair are uncorrelated
    assert abs(np.mean(z[0::2] * z[1::2])) < 5 / np.sqrt(N / 2)


def test_integers_take_every_value_evenly():
    k = integers(random.Random(12), 3, 10, N)
    counts = np.bincount(k - 3, minlength=7)
    assert len(counts) == 7
    p = 1 / 7
    assert (np.abs(counts / N - p) < 5 * np.sqrt(p * (1 - p) / N)).all()


def test_choice_frequencies_match_weights_and_skip_zero_weights():
    weights = np.array([0, 1, 0, 0, 3, 6, 0])
    c = choice(random.Random(13), weights, N)
    counts = np.bincount(c, minlength=len(weights))
    assert len(counts) == len(weights)
    assert (counts[weights == 0] == 0).all()
    p = weights[weights > 0] / weights.sum()
    assert (np.abs(counts[weights > 0] / N - p) <
            5 * np.sqrt(p * (1 - p) / N)).all()


def test_extreme_uniforms_stay_in_range():
    # at the smallest and the largest uniform, 0 and 1 - 2^-53, integers
    # stay in [lo, hi) and choice draws no zero weight at either end
    class Extreme:
        def __init__(self, byte):
            self.byte = byte

        def randbytes(self, n):
            return bytes([self.byte]) * n

    for byte in (0, 255):
        assert choice(Extreme(byte), [0, 0.1, 0.2, 0], 5).tolist() == \
            [1 if byte == 0 else 2] * 5
        assert integers(Extreme(byte), 0, 7, 3).tolist() == \
            [0 if byte == 0 else 6] * 3
