"""Measurement simulation for the dual-camera acquisition model.

The coded camera collapses a cube along the band axis under a per-voxel
binary mask; the multiband camera applies a (bands x channels) spectral
response at every pixel. Random ingredients (mask, additive noise) come
from a self-contained PCG-XSH-RR 32 generator, so a given seed produces
bit-identical output on every platform, independent of numpy's own RNG.
"""

from functools import cache

import numpy as np

from .core import check_cube

__all__ = [
    "Pcg32",
    "gen_mask",
    "zero_spectrum_pixels",
    "average_response",
    "single_band_response",
    "validate_response",
    "response_from_spec",
    "simulate_cassi",
    "simulate_multiband",
    "add_noise",
]

_PCG_MULT = 6364136223846793005
_PCG_STREAM = 54  # fixed stream selector; increment = (54 << 1) | 1
_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 15


@cache
def _chunk_tables():
    # apow[t] = MULT^t mod 2^64, qsum[t] = sum_{u<t} MULT^u mod 2^64 for
    # t <= _CHUNK (uint64 arithmetic wraps mod 2^64, so both are exact)
    apow = np.full(_CHUNK + 1, _PCG_MULT, dtype=np.uint64)
    apow[0] = 1
    np.multiply.accumulate(apow, out=apow)
    return apow, np.cumsum(apow) - apow


def _pcg_output(states):
    # xorshift-rotate output derived from the pre-step 64-bit state
    xorshifted = (((states >> np.uint64(18)) ^ states) >> np.uint64(27)).astype(np.uint32)
    rot = (states >> np.uint64(59)).astype(np.uint32)
    return (xorshifted >> rot) | (xorshifted << ((np.uint32(32) - rot) & np.uint32(31)))


class Pcg32:
    """PCG-XSH-RR 32-bit generator (64-bit LCG state, xorshift-rotate output).

    State update: s <- s * 6364136223846793005 + inc (mod 2^64), with the
    increment fixed by stream 54. Seeding follows the reference scheme:
    from state 0 the generator is stepped once, the seed is added, and it
    is stepped again. Each 32-bit output is derived from the pre-step state
    as ``rotr32(((s >> 18) ^ s) >> 27, s >> 59)``.

    Draws are vectorised chunk-wise through the closed form
    s_t = MULT^t * s_0 + (sum_{u<t} MULT^u) * inc (mod 2^64), which matches
    the sequential recurrence exactly.
    """

    def __init__(self, seed):
        seed = int(seed) & _MASK64
        inc = ((_PCG_STREAM << 1) | 1) & _MASK64
        state = (inc + seed) & _MASK64
        state = (state * _PCG_MULT + inc) & _MASK64
        self._state = state
        self._inc = inc

    def next_u32(self, count):
        """Return the next ``count`` raw 32-bit outputs as a uint32 array."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        apow, qsum = _chunk_tables()
        out = np.empty(count, dtype=np.uint32)
        filled = 0
        while filled < count:
            n = min(_CHUNK, count - filled)
            states = apow[:n] * np.uint64(self._state) + qsum[:n] * np.uint64(self._inc)
            out[filled : filled + n] = _pcg_output(states)
            self._state = (int(apow[n]) * self._state + int(qsum[n]) * self._inc) & _MASK64
            filled += n
        return out

    def uniform(self, count):
        """``count`` doubles in [0, 1): u = out / 2^32."""
        return self.next_u32(count).astype(np.float64) * 2.0**-32

    def normal(self, count):
        """``count`` standard-normal doubles via Box-Muller.

        Draws ceil(count/2) outputs for u1 = (out + 0.5) / 2^32 in (0, 1),
        then the same number for u2 = out / 2^32, and interleaves
        r*cos(2*pi*u2), r*sin(2*pi*u2) with r = sqrt(-2 ln u1).
        """
        pairs = (count + 1) // 2
        u1 = (self.next_u32(pairs).astype(np.float64) + 0.5) * 2.0**-32
        u2 = self.next_u32(pairs).astype(np.float64) * 2.0**-32
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:count]


def gen_mask(rows, cols, bands, seed, density=0.5):
    """Seeded Bernoulli {0, 1} mask cube of shape (rows, cols, bands).

    Entries are drawn in row, column, band order (C order of the cube) from
    ``Pcg32(seed)``; an entry is 1.0 when u < density for u = out / 2^32.
    Identical (seed, dims, density) give a bit-identical mask everywhere.
    """
    if min(rows, cols, bands) < 1:
        raise ValueError("mask dimensions must be positive")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    u = Pcg32(seed).uniform(rows * cols * bands)
    return (u < density).astype(np.float64).reshape(rows, cols, bands)


def zero_spectrum_pixels(mask):
    """Count pixels whose entire mask spectrum is zero (they carry no coded signal)."""
    mask = check_cube(mask, "mask")
    return int((~mask.any(axis=2)).sum())


def average_response(bands, channels):
    """Response whose channel t averages its contiguous group of bands.

    Bands are split into ``channels`` nearly equal contiguous groups; column
    t is 1/|group t| on its group and 0 elsewhere, so each channel reads the
    mean of its bands.
    """
    if channels < 1 or channels > bands:
        raise ValueError(f"channels must be in [1, bands], got {channels} for {bands} bands")
    a = np.zeros((bands, channels))
    bounds = [t * bands // channels for t in range(channels + 1)]
    for t in range(channels):
        lo, hi = bounds[t], bounds[t + 1]
        a[lo:hi, t] = 1.0 / (hi - lo)
    return a


def single_band_response(bands, indices):
    """Response whose channel t reads exactly band ``indices[t]``."""
    indices = [int(i) for i in indices]
    if not indices:
        raise ValueError("at least one band index is required")
    if len(set(indices)) != len(indices):
        raise ValueError(f"band indices must be distinct, got {indices}")
    for i in indices:
        if not 0 <= i < bands:
            raise ValueError(f"band index {i} out of range [0, {bands})")
    a = np.zeros((bands, len(indices)))
    for t, i in enumerate(indices):
        a[i, t] = 1.0
    return a


def validate_response(a, bands=None):
    """Validate a spectral response matrix and return it as float64."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or min(a.shape) < 1:
        raise ValueError(f"response must be a (bands, channels) matrix, got shape {a.shape}")
    if bands is not None and a.shape[0] != bands:
        raise ValueError(f"response has {a.shape[0]} rows, expected {bands} bands")
    if not np.isfinite(a).all():
        raise ValueError("response contains non-finite entries")
    if (a < 0).any():
        raise ValueError("response entries must be nonnegative")
    dead = np.flatnonzero(~a.any(axis=0))
    if dead.size:
        raise ValueError(f"response channel {int(dead[0])} is all zero")
    return a


def response_from_spec(spec, bands):
    """Build a response matrix from a spec string.

    Accepted forms: ``average`` (3 channels), ``average:C``,
    ``single:i,j,...`` and ``file:PATH``.
    """
    kind, _, detail = str(spec).partition(":")
    if kind == "average":
        channels = int(detail) if detail else 3
        return average_response(bands, channels)
    if kind == "single":
        if not detail:
            raise ValueError("single-band response needs indices, e.g. single:0,7,15")
        indices = [int(t) for t in detail.split(",")]
        return single_band_response(bands, indices)
    if kind == "file":
        if not detail:
            raise ValueError("file response needs a path, e.g. file:resp.txt")
        from . import io as _io

        return validate_response(_io.load_response(detail), bands)
    raise ValueError(f"unknown response spec {spec!r}")


def simulate_cassi(cube, mask):
    """Coded measurement: Y(i,j) = sum_k X(i,j,k) * C(i,j,k)."""
    cube = check_cube(cube)
    mask = check_cube(mask, "mask")
    if cube.shape != mask.shape:
        raise ValueError(f"cube shape {cube.shape} != mask shape {mask.shape}")
    return (cube * mask).sum(axis=2)


def simulate_multiband(cube, response):
    """Multiband measurement: Z(i,j,:) = A^T X(i,j,:) at every pixel."""
    cube = check_cube(cube)
    response = np.asarray(response, dtype=np.float64)
    if response.ndim != 2:
        raise ValueError(f"response must be 2-D, got shape {response.shape}")
    if response.shape[0] != cube.shape[2]:
        raise ValueError(
            f"response has {response.shape[0]} rows, cube has {cube.shape[2]} bands"
        )
    return cube @ response


def add_noise(meas, sigma, seed):
    """Add i.i.d. zero-mean Gaussian noise with standard deviation ``sigma``.

    Noise values are drawn from ``Pcg32(seed).normal`` and applied in C
    order over the array, so the result is reproducible bit-exactly from
    (seed, shape, sigma). ``sigma = 0`` returns an unmodified copy.
    """
    meas = np.asarray(meas, dtype=np.float64)
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0:
        return meas.copy()
    noise = Pcg32(seed).normal(meas.size).reshape(meas.shape)
    return meas + sigma * noise
