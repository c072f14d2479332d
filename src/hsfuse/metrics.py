"""Band-averaged quality metrics and singular-value diagnostics.

M-PSNR and M-SSIM are the means over bands of per-band PSNR/SSIM; MSA is
the mean spectral angle between per-pixel spectra, in degrees. All three
reject shape mismatches instead of broadcasting.

SSIM is the Gaussian-window index of Wang et al., "Image quality
assessment: from error visibility to structural similarity" (IEEE TIP,
2004): an 11x11 window with sigma 1.5, evaluated only where it fits inside
the image. That window is the outer product of an 11-tap 1-D Gaussian with
itself, so each band's five local moments (the means of x, y, x*x, y*y and
x*y) are filtered once along the rows and once along the columns, as one
stacked array, with plain numpy slices and no FFT. This costs 11 taps per
pixel and pass, whatever the image size.
"""

import sys
from dataclasses import dataclass

import numpy as np

from . import core

__all__ = [
    "MetricReport",
    "check_peak",
    "band_psnr",
    "band_ssim",
    "m_psnr",
    "m_ssim",
    "msa",
    "evaluate",
    "singular_spectrum",
    "mean_log_singular_spectrum",
]

PSNR_CAP_DB = 99.0

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


@dataclass(frozen=True)
class MetricReport:
    """Summary metrics for one reconstruction.

    ``m_psnr``/``m_ssim`` are the means of the per-band vectors;
    ``msa_skipped`` counts pixels excluded from MSA because either spectrum
    had zero norm.
    """

    m_psnr: float
    m_ssim: float
    msa: float
    band_psnr: np.ndarray
    band_ssim: np.ndarray
    msa_skipped: int


def _normal(value):
    """True where ``value`` is a positive normal float: not 0, subnormal, inf or NaN."""
    return (value >= sys.float_info.min) & (value <= sys.float_info.max)


def check_peak(peak):
    """``peak`` as a float, or ValueError unless it is a usable dynamic range.

    The peak must be positive and its square, which PSNR divides by, a
    normal float: a NaN, infinite or underflowing peak would otherwise
    report NaN or -inf.
    """
    value = float(peak)
    if not (value > 0 and _normal(value * value)):
        raise ValueError(f"peak must be positive with a normal-float square, got {peak}")
    return value


def _check_pair(ref, est):
    ref = core.check_cube(ref, "reference")
    est = core.check_cube(est, "estimate")
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch: reference {ref.shape} vs estimate {est.shape}")
    return ref, est


def band_psnr(ref, est, peak=1.0):
    """Per-band PSNR in dB, capped at ``PSNR_CAP_DB``, which zero-error bands take.

    Parameters
    ----------
    ref, est : array_like
        Cubes of identical shape.
    peak : float or None
        Peak signal value (see :func:`check_peak`). ``None`` uses each
        band's reference maximum.
    """
    ref, est = _check_pair(ref, est)
    if peak is None:
        peaks = ref.max(axis=(0, 1))
        if not _normal(peaks * peaks).all():
            raise ValueError(
                "per-band peak requested but a band's reference maximum is <= 0 "
                "or too small to square"
            )
    else:
        peaks = np.full(ref.shape[2], check_peak(peak))
    diff = ref - est
    mse = np.mean(diff * diff, axis=(0, 1))
    out = np.full(mse.shape, PSNR_CAP_DB)
    nz = mse > 0
    out[nz] = np.minimum(10.0 * np.log10(peaks[nz] ** 2 / mse[nz]), PSNR_CAP_DB)
    return out


def m_psnr(ref, est, peak=1.0):
    """Mean over bands of the per-band PSNR, in dB."""
    return float(band_psnr(ref, est, peak).mean())


def _gaussian_taps():
    coords = np.arange(_SSIM_WINDOW) - (_SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(coords**2) / (2.0 * _SSIM_SIGMA**2))
    return g / g.sum()


def _gaussian_valid(a, axis, taps):
    """Filter ``a`` along ``axis`` with the symmetric ``taps``, valid part only."""
    size = taps.shape[0]
    half = size // 2
    n = a.shape[axis] - size + 1
    head = (slice(None),) * axis

    def tap(k):
        return a[head + (slice(k, k + n),)]

    out = taps[half] * tap(half)
    pair = np.empty_like(out)
    for k in range(half):
        np.add(tap(k), tap(size - 1 - k), out=pair)
        pair *= taps[k]
        out += pair
    return out


def _ssim_band(x, y, c1, c2, taps):
    # x, y, x*x, y*y, x*y in one contiguous array, filtered together
    moments = np.empty((5,) + x.shape)
    moments[0] = x
    moments[1] = y
    np.multiply(moments[0], moments[0], out=moments[2])
    np.multiply(moments[1], moments[1], out=moments[3])
    np.multiply(moments[0], moments[1], out=moments[4])
    mu_x, mu_y, exx, eyy, exy = _gaussian_valid(_gaussian_valid(moments, 1, taps), 2, taps)
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    # for x == y both factors of num equal those of den bit for bit, so SSIM is exactly 1
    num = (2.0 * mu_xy + c1) * (2.0 * (exy - mu_xy) + c2)
    den = (mu_xx + mu_yy + c1) * ((exx - mu_xx) + (eyy - mu_yy) + c2)
    return float(np.mean(num / den))


def band_ssim(ref, est, peak=1.0):
    """Per-band SSIM with an 11x11 Gaussian window (sigma 1.5).

    Uses the standard stability constants K1=0.01, K2=0.03 with dynamic
    range ``peak``; windows are fully interior (no padding), so images must
    be at least 11x11.
    """
    ref, est = _check_pair(ref, est)
    peak = check_peak(peak)
    c1 = (_SSIM_K1 * peak) ** 2
    c2 = (_SSIM_K2 * peak) ** 2
    if not _normal(c1 * c2):
        # a flat window's SSIM is c1*c2 / (c1*c2), which is 0/0 or inf/inf
        # once that product leaves the normal range
        raise ValueError(f"peak {peak} is out of range for SSIM's stability constants")
    if ref.shape[0] < _SSIM_WINDOW or ref.shape[1] < _SSIM_WINDOW:
        raise ValueError(
            f"image {ref.shape[:2]} is smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} SSIM window"
        )
    taps = _gaussian_taps()
    return np.array(
        [_ssim_band(ref[:, :, b], est[:, :, b], c1, c2, taps) for b in range(ref.shape[2])]
    )


def m_ssim(ref, est, peak=1.0):
    """Mean over bands of the per-band SSIM."""
    return float(band_ssim(ref, est, peak).mean())


def _msa(ref, est):
    rmat = core.unfold3(ref)
    emat = core.unfold3(est)
    dot = np.sum(rmat * emat, axis=0)
    rr = np.sum(rmat * rmat, axis=0)
    ee = np.sum(emat * emat, axis=0)
    valid = (rr > 0) & (ee > 0)
    skipped = int(valid.size - np.count_nonzero(valid))
    if not valid.any():
        raise ValueError("every pixel has a zero-norm spectrum")
    num = dot[valid]
    den2 = rr[valid] * ee[valid]
    cos = np.clip(num / np.sqrt(den2), -1.0, 1.0)
    # snap numerically (anti)parallel pairs so angles of 0 / 180 are exact
    cos = np.where(num * num >= den2, np.sign(num), cos)
    return float(np.degrees(np.arccos(cos)).mean()), skipped


def msa(ref, est):
    """Mean spectral angle over pixels, in degrees.

    The cosine is clamped to [-1, 1]; pixels where either spectrum has zero
    norm are skipped (their count is available via :func:`evaluate`).
    """
    ref, est = _check_pair(ref, est)
    return _msa(ref, est)[0]


def evaluate(ref, est, peak=1.0, per_band_peak=False):
    """Compute the full :class:`MetricReport` for a reconstruction.

    With ``per_band_peak`` the PSNR uses each band's reference maximum as
    its peak; SSIM always uses the scalar ``peak`` as its dynamic range.
    """
    ref, est = _check_pair(ref, est)
    psnr_bands = band_psnr(ref, est, None if per_band_peak else peak)
    ssim_bands = band_ssim(ref, est, peak)
    angle, skipped = _msa(ref, est)
    return MetricReport(
        m_psnr=float(psnr_bands.mean()),
        m_ssim=float(ssim_bands.mean()),
        msa=angle,
        band_psnr=psnr_bands,
        band_ssim=ssim_bands,
        msa_skipped=skipped,
    )


def singular_spectrum(cube):
    """Singular values (descending) of the cube's band-by-pixel unfolding."""
    cube = core.check_cube(cube)
    return np.linalg.svd(core.unfold3(cube), compute_uv=False)


def mean_log_singular_spectrum(patches):
    """Element-wise mean of log10 singular values across same-size patches.

    ``patches`` may be any iterable. A generator is consumed one patch at a
    time and only the spectra (one value per band) are kept, so the patches
    are never held together. Exact zeros map to -inf, which propagates
    through the mean; realistic data stays finite.
    """
    spectra = [singular_spectrum(p) for p in patches]
    if not spectra:
        raise ValueError("at least one patch is required")
    lengths = {s.shape[0] for s in spectra}
    if len(lengths) != 1:
        raise ValueError("patches have inconsistent singular spectrum lengths")
    with np.errstate(divide="ignore"):
        logs = np.log10(np.stack(spectra))
    return logs.mean(axis=0)
