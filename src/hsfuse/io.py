"""File formats: binary cube container, response text files, CSV reports,
and run manifests.

Cube container ("HSC1"): 4-byte magic ``HSC1``, then three little-endian
uint32 (rows, cols, bands), then rows*cols*bands little-endian IEEE-754
float32 values, band-sequential (all of band 0 first), row-major within
each band. File length is exactly 16 + 4*rows*cols*bands bytes. Cubes are
computed in float64 and truncated to float32 on write.

Response files are plain text: a first line ``bands channels`` followed by
``bands`` lines of ``channels`` space-separated decimal reals.

Manifests are ``key = value`` lines ('#' starts a comment); a manifest plus
the referenced input files reproduces a CLI run bit-exactly.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import core
from .forward import validate_response

__all__ = [
    "MAGIC",
    "FormatError",
    "ReportRow",
    "read_cube",
    "write_cube",
    "load_response",
    "save_response",
    "write_table",
    "write_report",
    "read_manifest",
    "write_manifest",
]

MAGIC = b"HSC1"

REPORT_HEADER = ("scene", "method", "k", "m", "s", "m_psnr", "m_ssim", "msa", "wall_seconds")


class FormatError(Exception):
    """A file does not conform to its declared format."""


def write_cube(cube, path):
    """Write a cube to the binary container, truncating values to float32."""
    cube = core.check_cube(cube)
    if not np.isfinite(cube).all():
        raise FormatError("cube contains non-finite values")
    with np.errstate(over="ignore"):
        payload = cube.transpose(2, 0, 1).astype("<f4", order="C")
    if not np.isfinite(payload).all():
        raise FormatError("cube values overflow float32")
    rows, cols, bands = cube.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", rows, cols, bands))
        fh.write(payload)


def read_cube(path):
    """Read a cube container back into a float64 (rows, cols, bands) array."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic (expected {MAGIC.decode()})")
    if len(data) < 16:
        raise FormatError(f"{path}: truncated header")
    rows, cols, bands = struct.unpack("<III", data[4:16])
    if min(rows, cols, bands) < 1:
        raise FormatError(f"{path}: invalid dimensions {rows}x{cols}x{bands}")
    expected = 16 + 4 * rows * cols * bands
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(data)}")
    payload = np.frombuffer(data, dtype="<f4", offset=16)
    if not np.isfinite(payload).all():
        raise FormatError(f"{path}: payload contains non-finite values")
    return payload.reshape(bands, rows, cols).transpose(1, 2, 0).astype(np.float64)


def save_response(response, path):
    """Write a spectral response matrix as text (round-trip exact)."""
    response = validate_response(response)
    bands, channels = response.shape
    lines = [f"{bands} {channels}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in response]
    Path(path).write_text("\n".join(lines) + "\n")


def load_response(path):
    """Read a spectral response matrix from its text format."""
    text = Path(path).read_text()
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise FormatError(f"{path}: first line must be 'bands channels'")
    try:
        bands, channels = int(rows[0][0]), int(rows[0][1])
        values = [[float(v) for v in row] for row in rows[1:]]
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from err
    if len(values) != bands or any(len(row) != channels for row in values):
        raise FormatError(f"{path}: expected {bands} lines of {channels} values")
    try:
        return validate_response(np.array(values, dtype=np.float64))
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from err


@dataclass(frozen=True)
class ReportRow:
    """One evaluation row of the CSV report."""

    scene: str
    method: str
    rank: int
    patch: int
    stride: int
    m_psnr: float
    m_ssim: float
    msa: float
    wall_seconds: float


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _check_identifier(value, what):
    value = str(value)
    if "," in value or "\n" in value:
        raise ValueError(f"{what} {value!r} must not contain commas or newlines")
    return value


def write_table(path, header, rows):
    """Write a plain CSV table (no quoting; fields must be comma-free)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_report(rows, path):
    """Write MetricReport rows as CSV with the fixed column order."""
    table = []
    for row in rows:
        table.append(
            (
                _check_identifier(row.scene, "scene"),
                _check_identifier(row.method, "method"),
                row.rank,
                row.patch,
                row.stride,
                float(row.m_psnr),
                float(row.m_ssim),
                float(row.msa),
                float(row.wall_seconds),
            )
        )
    write_table(path, REPORT_HEADER, table)


def write_manifest(path, entries):
    """Write configuration as human-readable ``key = value`` lines."""
    lines = [f"{key} = {value}" for key, value in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path):
    """Read a ``key = value`` manifest (or config file) into a dict."""
    entries = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        entries[key.strip()] = value.strip()
    return entries
