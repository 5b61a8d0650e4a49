"""Array draws from a random.Random, the generator of every test point."""

import numpy as np


def uniform(rng, shape):
    """Uniforms in [0, 1): the top 53 bits of each 8 bytes of rng.randbytes,
    read little-endian, over 2^53.  Drawing m values and then n gives the
    m + n values drawn at once."""
    bits = np.frombuffer(rng.randbytes(8 * np.prod(shape, dtype=int)), "<u8")
    return ((bits >> 11) * 2.0 ** -53).reshape(shape)


def normal(rng, shape):
    """Standard normals by Box-Muller: uniforms u, v give r cos(2 pi v), then
    r sin(2 pi v), r = sqrt(-2 ln(1 - u)); even-sized parts join seamlessly."""
    n = np.prod(shape, dtype=int)
    u, v = uniform(rng, (-(-n // 2), 2)).T
    z = np.sqrt(-2 * np.log1p(-u)) * np.exp(2j * np.pi * v)
    return z.view(float)[:n].reshape(shape)      # real, imaginary in turn


def integers(rng, lo, hi, shape):
    """lo + floor(u n) for uniforms u and n = hi - lo: the 2^53 values of u
    fall into n runs, whose ends rounding moves by one value at most, so the
    odds of any set of results are within n 2^-53 of its share."""
    return lo + (uniform(rng, shape) * (hi - lo)).astype(np.intp)


def choice(rng, weights, shape):
    """Indices drawn in proportion to nonnegative weights, never one of weight
    0: the first whose cumulative weight is above u times the total."""
    cum = np.cumsum(weights)
    return np.searchsorted(cum, uniform(rng, shape) * cum[-1], side="right")
