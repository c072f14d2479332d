"""Dual-camera compressive hyperspectral imaging toolkit.

Simulates coded-aperture and multiband measurements of a hyperspectral
cube and reconstructs the cube by non-iterative low-rank fusion, either
globally or over overlapping patches.
"""

__version__ = "0.1.0"

from .core import PatchGrid, aggregate, extract_patch, fold3, make_grid, unfold3
from .forward import (
    Pcg32,
    add_noise,
    average_response,
    gen_mask,
    response_from_spec,
    simulate_cassi,
    simulate_multiband,
    single_band_response,
)
from .fusion import (
    CoefficientEstimate,
    FusionConfig,
    PatchStats,
    assemble_phi_rgb,
    assemble_phi_w,
    estimate_coefficients,
    fuse,
    pfuse,
    solve_basis,
)
from .io import FormatError, ReportRow, read_cube, write_cube
from .metrics import (
    MetricReport,
    evaluate,
    m_psnr,
    m_ssim,
    mean_log_singular_spectrum,
    msa,
    singular_spectrum,
)
from .numeric import (
    LstsqResult,
    RankDeficiencyError,
    SvdResult,
    lstsq,
    normal_lstsq,
    truncated_svd,
)

__all__ = [
    "__version__",
    "PatchGrid",
    "aggregate",
    "extract_patch",
    "fold3",
    "make_grid",
    "unfold3",
    "Pcg32",
    "add_noise",
    "average_response",
    "gen_mask",
    "response_from_spec",
    "simulate_cassi",
    "simulate_multiband",
    "single_band_response",
    "CoefficientEstimate",
    "FusionConfig",
    "PatchStats",
    "assemble_phi_rgb",
    "assemble_phi_w",
    "estimate_coefficients",
    "fuse",
    "pfuse",
    "solve_basis",
    "FormatError",
    "ReportRow",
    "read_cube",
    "write_cube",
    "MetricReport",
    "evaluate",
    "m_psnr",
    "m_ssim",
    "mean_log_singular_spectrum",
    "msa",
    "singular_spectrum",
    "LstsqResult",
    "RankDeficiencyError",
    "SvdResult",
    "lstsq",
    "normal_lstsq",
    "truncated_svd",
]
