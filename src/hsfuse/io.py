"""File formats: binary cube container, response text files, CSV reports,
and run manifests.

Cube container ("HSC1"): 4-byte magic ``HSC1``, then three little-endian
uint32 (rows, cols, bands), then rows*cols*bands little-endian IEEE-754
float32 values, band-sequential (all of band 0 first), row-major within
each band. File length is exactly 16 + 4*rows*cols*bands bytes. Cubes are
computed in float64 and truncated to float32 on write.
:class:`CubeReader` reads any run of rows by slicing, with one positioned
read per band, and :class:`CubeWriter` writes rows in order the same way to a
temporary file that replaces its path only once every row is in.
``read_cube`` and ``write_cube`` are the whole cube's case of each; a caller
that works by row blocks holds only the rows it asked for.

Response files are plain text: a first line ``bands channels`` followed by
``bands`` lines of ``channels`` space-separated decimal reals.

Manifests are ``key = value`` lines ('#' starts a comment); a manifest plus
the referenced input files reproduces a CLI run bit-exactly; a value of
None is written empty, and a bool as ``true`` or ``false``.

Every writer makes the directory of the file it writes.
"""

import errno
import os
import struct
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import FormatError, core

__all__ = [
    "MAGIC",
    "FormatError",
    "CubeReader",
    "CubeWriter",
    "ReportRow",
    "check_identifier",
    "check_manifest_value",
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


class CubeReader:
    """Rows of a cube container, read on demand.

    Opening checks the header and the file length, so a malformed file fails
    before any row is used. ``reader[r0:r1]`` returns rows r0:r1 of every band
    as a new float64 (r1 - r0, cols, bands) array in :func:`read_cube`'s layout:
    it reads each band's rows with one positioned read into one band-sized
    float32 buffer, checks them for finiteness and copies them into the
    result. Use it as a context manager, which closes the file.
    """

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb")
        try:
            head = self._file.read(16)
            if head[:4] != MAGIC:
                raise FormatError(f"{path}: bad magic (expected {MAGIC.decode()})")
            if len(head) < 16:
                raise FormatError(f"{path}: truncated header")
            self.shape = rows, cols, bands = struct.unpack("<III", head[4:])
            if min(self.shape) < 1:
                raise FormatError(f"{path}: invalid dimensions {rows}x{cols}x{bands}")
            expected = 16 + 4 * rows * cols * bands
            found = os.fstat(self._file.fileno()).st_size
            if found != expected:
                raise FormatError(f"{path}: expected {expected} bytes, found {found}")
        except BaseException:
            self._file.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *_):
        self._file.close()

    def __getitem__(self, span):
        """Rows r0:r1 of the slice ``span`` as a float64 (r1 - r0, cols, bands) array."""
        rows, cols, bands = self.shape
        step_1 = isinstance(span, slice) and span.step in (None, 1)
        r0, r1 = (span.start or 0, rows if span.stop is None else span.stop) if step_1 else (0, 0)
        if not 0 <= r0 < r1 <= rows:
            raise ValueError(f"rows {span!r} are not a nonempty step-1 slice within 0:{rows}")
        part = np.empty((r1 - r0, cols), dtype="<f4")
        # astype's layout of the band-major float32 block, which is never written
        block = np.empty_like(np.empty((bands, *part.shape), "<f4").transpose(1, 2, 0), np.float64)
        for band in range(bands):
            self._file.seek(16 + 4 * (band * rows + r0) * cols)
            if self._file.readinto(part) != part.nbytes:
                raise FormatError(f"{self.path}: file ended inside band {band}")
            if not np.isfinite(part).all():
                raise FormatError(f"{self.path}: payload contains non-finite values")
            block[:, :, band] = part
        return block


class CubeWriter:
    """A cube container written row block by row block, replacing ``path`` only when whole.

    Blocks go, in row order, to a temporary file beside ``path``, one positioned write per
    band, after the checks of :func:`write_cube`: finite values that do not overflow float32.
    When the ``with`` block ends without an error and every row is written, ``os.replace``
    moves the file onto ``path``; otherwise it is deleted and ``path`` is left as it was. A
    directory at ``path`` is refused on opening. A failed ``mkdir`` names the directory it
    could not make (below a file, say); other OS errors name ``path``.
    """

    def __init__(self, path, shape):
        self.path = Path(path)
        # refused before the temporary file exists: its header holds three uint32
        if len(shape) != 3 or not all(core._integer(d) and 1 <= d < 2**32 for d in shape):
            raise ValueError(f"{path}: invalid dimensions {'x'.join(map(str, shape))}")
        self.shape = rows, cols, bands = tuple(map(int, shape))
        self._next = 0
        if self.path.is_dir():  # which os.replace would refuse only once every row is in
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(self.path))
        # unique while this writer lives; another process has another pid
        self._temp = self.path.with_name(f".{self.path.name}.{os.getpid()}-{id(self):x}.tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._file = open(self._temp, "xb")  # never an existing file; umask sets its mode
        except OSError as err:  # named for the path asked for, not its temporary file
            raise OSError(err.errno, err.strerror, str(self.path)) from err
        self._file.write(MAGIC + struct.pack("<III", rows, cols, bands))

    def __enter__(self):
        return self

    def __exit__(self, error, *_):
        try:
            self._file.close()
            if error is None:
                if self._next != self.shape[0]:
                    raise ValueError(f"{self.path}: {self._next} of {self.shape[0]} rows written")
                os.replace(self._temp, self.path)
        except OSError as err:
            raise OSError(err.errno, err.strerror, str(self.path)) from err
        finally:
            self._temp.unlink(missing_ok=True)  # gone already once it replaced ``path``

    def write(self, r0, block):
        """Write ``block``, a (rows, cols, bands) array, as the rows from ``r0``."""
        rows, cols, bands = self.shape
        block = core.check_cube(block)
        if r0 != self._next or r0 + len(block) > rows or block.shape[1:] != (cols, bands):
            raise ValueError(f"{self.path}: expected rows from {self._next} of shape "
                             f"(*, {cols}, {bands}), got {block.shape} at row {r0}")
        with np.errstate(over="ignore"):
            payload = block.transpose(2, 0, 1).astype("<f4", order="C")
        if not np.isfinite(payload).all():
            fault = ("values overflow float32" if np.isfinite(block).all()
                     else "contains non-finite values")
            raise FormatError(f"{self.path}: cube {fault}")
        for band, part in enumerate(payload):
            self._file.seek(16 + 4 * (band * rows + r0) * cols)
            self._file.write(part)
        self._next += len(block)


def write_cube(cube, path):
    """Write a cube to the binary container, truncating values to float32."""
    cube = core.check_cube(cube)
    with CubeWriter(path, cube.shape) as writer:
        writer.write(0, cube)


def read_cube(path):
    """Read a cube container back into a float64 (rows, cols, bands) array."""
    with CubeReader(path) as reader:
        return reader[:]


def save_response(response, path):
    """Write a spectral response matrix as text (round-trip exact)."""
    response = core.validate_response(response)
    bands, channels = response.shape
    lines = [f"{bands} {channels}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in response]
    _write_text(path, lines)


def _write_text(path, lines):
    """Write ``lines`` as UTF-8 text, one per line, making the file's directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_text(path):
    """The text of the file at ``path``, or FormatError naming it if it is not UTF-8 text.
    A leading byte-order mark, as some editors save UTF-8, is not part of the text."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: not a text file ({err.reason} at byte {err.start})") from err


def load_response(path):
    """Read a spectral response matrix from its text format."""
    rows = [line.split() for line in _read_text(path).splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise FormatError(f"{path}: first line must be 'bands channels'")
    try:
        bands, channels = int(rows[0][0]), int(rows[0][1])
        values = [[float(v) for v in row] for row in rows[1:]]
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from err
    for count, name in ((bands, "band"), (channels, "channel")):
        if count < 1:
            raise FormatError(f"{path}: {name} count {count} must be at least 1")
    if len(values) != bands or any(len(row) != channels for row in values):
        raise FormatError(f"{path}: expected {bands} lines of {channels} values")
    try:
        return core.validate_response(np.array(values, dtype=np.float64))
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from err


@dataclass(frozen=True)
class ReportRow:
    """One evaluation row of the CSV report; its fields are REPORT_HEADER's columns."""

    scene: str
    method: str
    rank: int
    patch: int
    stride: int
    m_psnr: float
    m_ssim: float
    msa: float
    wall_seconds: float

    def __post_init__(self):
        object.__setattr__(self, "scene", check_identifier(self.scene, "scene"))
        object.__setattr__(self, "method", check_identifier(self.method, "method"))


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def check_identifier(value, what):
    """``value`` as a string, or ValueError if it would break a CSV field or line."""
    value = str(value)
    if any(char in value for char in ',"\r\n'):
        raise ValueError(f"{what} {value!r} must not contain commas, quotes or line breaks")
    return value


def check_manifest_value(value, what):
    """``value`` as a manifest's text (None empty, a bool ``true`` or ``false``), or ValueError
    if a manifest could not carry it back unchanged: :func:`read_manifest` ends a value at a
    line break and strips it."""
    text = str(value).lower() if isinstance(value, bool) else "" if value is None else str(value)
    if text != text.strip() or len(text.splitlines()) > 1:
        raise ValueError(f"{what} {text!r} must not contain line breaks or surrounding "
                         "whitespace, which its manifest would not keep")
    return text


def write_table(path, header, rows):
    """Write a plain CSV table (no quoting; fields must be comma-free)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, lines)


def write_report(rows, path):
    """Write ReportRow rows as CSV with the fixed column order."""
    write_table(path, REPORT_HEADER, [astuple(row) for row in rows])


def write_manifest(path, entries):
    """Write configuration as human-readable ``key = value`` lines, refusing a value that
    :func:`read_manifest` would not read back as written (:func:`check_manifest_value`)."""
    lines = [f"{key} = {check_manifest_value(value, key)}" for key, value in entries.items()]
    _write_text(path, lines)


def read_manifest(path):
    """Read a ``key = value`` manifest (or config file) into a dict; a key appears once."""
    entries = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key in entries:
            raise FormatError(f"{path}:{lineno}: key {key!r} repeats an earlier line")
        entries[key] = value.strip()
    return entries
