"""Band-averaged quality metrics and singular-value diagnostics.

M-PSNR and M-SSIM are the means over bands of per-band PSNR/SSIM; MSA is
the mean spectral angle between per-pixel spectra, in degrees. All three
reject shape mismatches instead of broadcasting.

SSIM is the Gaussian-window index of Wang et al., "Image quality
assessment: from error visibility to structural similarity" (IEEE TIP,
2004): an 11x11 window with sigma 1.5, evaluated only where it fits inside
the image. That window is the outer product of an 11-tap 1-D Gaussian with
itself, so each band's five local moments (the means of x, y, x*x, y*y and
x*y) are filtered once along the columns and once along the rows, with no
FFT and no scipy. Each pass is a matrix product with a banded Toeplitz
matrix of the taps: the map is computed 32 rows at a time, each strip from
its rows and the window's halo below them, filtered down by one GEMM and
then across by one GEMM per block of 32 output columns, and the SSIM
formula runs in place on the strip while it is in cache. All five moments
go through calls of one shape and layout, so with a BLAS whose results
depend only on a call's operands and shape (OpenBLAS's do), SSIM(x, x) is
exactly 1 and SSIM(x, y) equals SSIM(y, x) to the last bit.
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
_SSIM_BLOCK = 32  # SSIM map rows per strip, and columns per block of the row pass


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
    mse = np.empty(ref.shape[2])
    for b in range(ref.shape[2]):
        # each band's difference is a contiguous 2-D array whatever the cubes' layout, so
        # its mean adds the same values in the same order for C- and band-major cubes
        diff = ref[:, :, b] - est[:, :, b]
        diff *= diff
        mse[b] = diff.mean()
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


def _band_matrix(taps, n):
    """The (n, n + 10) banded Toeplitz matrix T of the taps: T @ a filters a down its columns."""
    band = np.zeros((n, n + len(taps) - 1))
    for k, tap in enumerate(taps):
        np.fill_diagonal(band[:, k:], tap)
    return band


def _ssim_band(x, y, c1, c2, taps):
    # SSIM's map a strip of rows at a time, from those rows and the window's halo below them;
    # x, y, x*x, y*y and x*y share each matmul call, so equal planes filter to equal bits
    halo = len(taps) - 1
    ssim = np.empty((x.shape[0] - halo, x.shape[1] - halo))
    strip, block = min(_SSIM_BLOCK, ssim.shape[0]), min(_SSIM_BLOCK, ssim.shape[1])
    down, across = _band_matrix(taps, strip), _band_matrix(taps, block).T.copy()
    moments = np.empty((5, strip + halo, x.shape[1]))
    filtered = np.empty((5, strip, x.shape[1]))
    local = np.empty((5, strip, ssim.shape[1]))
    for r0 in range(0, len(ssim), strip):
        n = min(strip, len(ssim) - r0)
        m = moments[:, : n + halo]
        m[0], m[1] = x[r0 : r0 + n + halo], y[r0 : r0 + n + halo]
        np.multiply(m[0], m[0], out=m[2])
        np.multiply(m[1], m[1], out=m[3])
        np.multiply(m[0], m[1], out=m[4])
        f = np.matmul(down[:n, : n + halo], m, out=filtered[:, :n])
        mu_x, mu_y, exx, eyy, exy = local[:, :n]
        for c0 in range(0, ssim.shape[1], block):
            w = min(block, ssim.shape[1] - c0)
            np.matmul(f[:, :, c0 : c0 + w + halo], across[: w + halo, :w],
                      out=local[:, :n, c0 : c0 + w])
        # (2 mu_xy + c1)(2 (exy - mu_xy) + c2) / ((mu_xx + mu_yy + c1)((exx - mu_xx) + (eyy -
        # mu_yy) + c2)) in place; for x == y both factors of num equal those of den bit for bit
        out = np.multiply(mu_x, mu_y, out=ssim[r0 : r0 + n])
        exy -= out
        exy *= 2.0
        exy += c2
        out *= 2.0
        out += c1
        out *= exy
        mu_x *= mu_x
        mu_y *= mu_y
        exx -= mu_x
        eyy -= mu_y
        exx += eyy
        exx += c2
        mu_x += mu_y
        mu_x += c1
        mu_x *= exx
        out /= mu_x
    return float(np.mean(ssim))


def _ssim_constants(peak, shape=None):
    """SSIM's (c1, c2) for the range ``peak`` (``None`` is 1.0), or ValueError if they are
    unusable or an image of ``shape`` is smaller than the window: checks that need no pixels."""
    peak = 1.0 if peak is None else check_peak(peak)
    c1, c2 = (_SSIM_K1 * peak) ** 2, (_SSIM_K2 * peak) ** 2
    if not _normal(c1 * c2):  # else a flat window's SSIM, c1*c2 / (c1*c2), is 0/0 or inf/inf
        raise ValueError(f"peak {peak} is out of range for SSIM's stability constants")
    if shape is not None and min(shape[:2]) < _SSIM_WINDOW:
        raise ValueError(f"image {shape[:2]} is smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} "
                         "SSIM window")
    return c1, c2


def band_ssim(ref, est, peak=1.0):
    """Per-band SSIM with an 11x11 Gaussian window (sigma 1.5).

    Uses the standard stability constants K1=0.01, K2=0.03 with dynamic
    range ``peak``, where ``None`` (:func:`evaluate`'s per-band peak) is a
    range of 1.0; windows are fully interior (no padding), so images must be
    at least 11x11.
    """
    ref, est = _check_pair(ref, est)
    c1, c2 = _ssim_constants(peak, ref.shape)
    taps = _gaussian_taps()
    return np.array(
        [_ssim_band(ref[:, :, b], est[:, :, b], c1, c2, taps) for b in range(ref.shape[2])]
    )


def m_ssim(ref, est, peak=1.0):
    """Mean over bands of the per-band SSIM."""
    return float(band_ssim(ref, est, peak).mean())


def _msa(ref, est):
    # per-pixel sums over bands, added in band order like a sum over unfold3's rows
    r, e = ref[:, :, 0], est[:, :, 0]
    dot, rr, ee = r * e, r * r, e * e
    for b in range(1, ref.shape[2]):
        r, e = ref[:, :, b], est[:, :, b]
        dot, rr, ee = dot + r * e, rr + r * r, ee + e * e
    dot, rr, ee = (a.ravel(order="F") for a in (dot, rr, ee))  # pixel p = i + j*rows
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


def evaluate(ref, est, peak=1.0):
    """Compute the full :class:`MetricReport` for a reconstruction.

    ``peak`` is the PSNR peak and SSIM dynamic range. ``None`` gives each
    band's PSNR its reference maximum as peak, and SSIM a range of 1.0.
    """
    ref, est = _check_pair(ref, est)
    psnr_bands = band_psnr(ref, est, peak)
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
