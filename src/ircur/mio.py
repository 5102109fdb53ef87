"""Matrix and frame-sequence I/O.

Two matrix formats: a binary format (magic "IRCM", little-endian 32-bit
row and column counts, then rows*cols little-endian float64 values in
column-major order) whose round trip is bit-exact, and CSV (one matrix
row per line, 17-significant-digit floats) whose round trip is
value-exact.  Image frames use binary PGM (P5, maxval 255).
"""

from __future__ import annotations

import re
import struct
import warnings
from pathlib import Path

import numpy as np

from .matcore import Matrix, require_finite

BIN_MAGIC = b"IRCM"
_BIN_HEADER = struct.Struct("<4sii")


class FormatError(ValueError):
    """Raised for malformed matrix or frame files.

    ``offset`` is the byte offset of the problem when it is known
    (binary formats), else None.
    """

    def __init__(self, message: str, path=None, offset: int | None = None):
        loc = f"{path}: " if path is not None else ""
        at = f" (byte offset {offset})" if offset is not None else ""
        super().__init__(f"{loc}{message}{at}")
        self.path = path
        self.offset = offset


def _sniff_format(path: Path) -> str:
    if path.suffix.lower() == ".csv":
        return "csv"
    if path.suffix.lower() == ".bin":
        return "bin"
    with open(path, "rb") as fh:
        return "bin" if fh.read(4) == BIN_MAGIC else "csv"


def write_matrix(M: Matrix, path) -> None:
    """Write M to ``path``: CSV for a ``.csv`` suffix, else BIN.  A matrix
    that :func:`read_matrix` would refuse (not 2-D, or with a zero dimension)
    raises ValueError before the file is opened."""
    path = Path(path)
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"only 2-D matrices without a zero dimension can be written: {M.shape}")
    if path.suffix.lower() == ".csv":
        np.savetxt(path, M, delimiter=",", fmt="%.17g")
    else:
        with open(path, "wb") as fh:
            fh.write(_BIN_HEADER.pack(BIN_MAGIC, M.shape[0], M.shape[1]))
            fh.write(np.asarray(M, dtype="<f8").tobytes(order="F"))


def read_matrix(path) -> Matrix:
    """Read a matrix written by :func:`write_matrix`: ``.csv`` and ``.bin``
    by suffix, any other file by its magic bytes.

    Bad magic, truncated payloads, non-finite values and a matrix with a
    zero dimension raise FormatError (with the byte offset where a binary
    file has one).
    """
    path = Path(path)
    return _read_bin(path) if _sniff_format(path) == "bin" else _read_csv(path)


def _read_bin(path: Path) -> Matrix:
    # fromfile reads the payload once, straight into the returned array.
    size = path.stat().st_size
    with open(path, "rb") as fh:
        header = fh.read(_BIN_HEADER.size)  # may be short: the file can shrink after stat
        if len(header) < _BIN_HEADER.size:
            raise FormatError("truncated header", path=path, offset=len(header))
        magic, rows, cols = _BIN_HEADER.unpack(header)
        if magic != BIN_MAGIC:
            raise FormatError(f"bad magic {magic!r}", path=path, offset=0)
        if rows < 0 or cols < 0:
            raise FormatError(f"negative dimensions {rows}x{cols}", path=path, offset=4)
        expected = _BIN_HEADER.size + 8 * rows * cols
        if size < expected:
            raise FormatError(
                f"truncated payload, expected {expected} bytes", path=path, offset=size
            )
        if size > expected:
            raise FormatError("trailing bytes after payload", path=path, offset=expected)
        if rows * cols == 0:
            raise FormatError("empty matrix", path=path)
        flat = np.fromfile(fh, dtype="<f8", count=rows * cols)
    if flat.size != rows * cols:  # the file shrank after stat
        raise FormatError(
            "truncated payload", path=path, offset=_BIN_HEADER.size + 8 * flat.size
        )
    M = flat.reshape((rows, cols), order="F")
    try:
        return require_finite(M)
    except ValueError:
        bad = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise FormatError(
            "non-finite value", path=path, offset=_BIN_HEADER.size + 8 * bad
        ) from None


def _read_csv(path: Path) -> Matrix:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty input warns before we raise
            M = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (ValueError, OSError) as exc:
        raise FormatError(f"unreadable CSV: {exc}", path=path) from exc
    if M.size == 0:
        raise FormatError("empty CSV", path=path)
    try:
        require_finite(M)
    except ValueError:
        raise FormatError("non-finite value", path=path) from None
    return M


def frames_to_matrix(frames: np.ndarray) -> Matrix:
    """Stack the vectorized frames of a (frames, height, width) array as columns.

    Pixel (x, y) of frame t (x across the width, y down the height) maps
    to row y + x * height, column t: each frame is flattened
    column-by-column.
    """
    if frames.ndim != 3 or frames.shape[0] == 0:
        raise ValueError(f"need a nonempty (frames, height, width) array, got {frames.shape}")
    f, h, w = frames.shape
    return np.asfortranarray(
        frames.transpose(1, 2, 0).reshape((h * w, f), order="F").astype(np.float64)
    )


def matrix_to_frames(M: Matrix, width: int, height: int) -> np.ndarray:
    """Inverse of :func:`frames_to_matrix`, as a (frames, height, width)
    uint8 array; values are rounded to the nearest integer and clamped to
    [0, 255]."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != width * height:
        raise ValueError(
            f"matrix with {M.shape[0]} rows does not match {width}x{height} frames"
        )
    vals = np.clip(np.rint(M), 0, 255).astype(np.uint8)
    return vals.reshape((height, width, M.shape[1]), order="F").transpose(2, 0, 1).copy()


def write_pgm(frame: np.ndarray, path) -> None:
    """Write one (height, width) frame of integers in 0..255 as binary PGM
    (P5, maxval 255); any other value raises ValueError."""
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise ValueError("a PGM frame must be 2-D")
    with np.errstate(invalid="ignore"):  # a value the cast changes fails below
        pixels = frame.astype(np.uint8, copy=False)
    if not np.array_equal(pixels, frame):
        raise ValueError("PGM pixel values must be integers in 0..255")
    h, w = frame.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))


# Whitespace and "#" comment lines, then a PGM header field's digits (maybe none).
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\d*)")


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) frame; comments and maxval <= 255 supported."""
    path = Path(path)
    data = path.read_bytes()
    if data[:2] != b"P5":
        raise FormatError("not a binary PGM (missing P5)", path=path, offset=0)
    pos, fields = 2, []
    for _ in range(3):
        m = _PGM_FIELD.match(data, pos)
        if not m[1]:
            raise FormatError("malformed PGM header", path=path, offset=m.start(1))
        fields.append(m)
        pos = m.end()
    w, h, maxval = (int(m[1]) for m in fields)
    if w == 0 or h == 0:
        raise FormatError(f"zero frame size {w}x{h}", path=path, offset=fields[0].start(1))
    if maxval > 255 or maxval < 1:
        raise FormatError(f"unsupported maxval {maxval}", path=path, offset=pos)
    if not data[pos:pos + 1].isspace():
        raise FormatError("no whitespace byte after PGM maxval", path=path, offset=pos)
    pos += 1
    if len(data) - pos < w * h:
        raise FormatError("truncated pixel data", path=path, offset=len(data))
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    above = np.flatnonzero(pixels > maxval)
    if above.size:
        raise FormatError(f"pixel above maxval {maxval}", path=path, offset=pos + int(above[0]))
    return pixels.reshape((h, w)).copy()


def write_frame_dir(frames: np.ndarray, directory, first: int = 0) -> None:
    """Write each frame of a (frames, height, width) array as
    ``frame_<index>.pgm`` inside ``directory``, indices counting from ``first``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for t, frame in enumerate(frames, first):
        write_pgm(frame, directory / f"frame_{t:05d}.pgm")


def read_frame_dir(directory) -> np.ndarray:
    """Read all ``*.pgm`` files in a directory (sorted by name) as one
    (frames, height, width) uint8 array."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.pgm"))
    if not paths:
        raise FormatError("no .pgm frames found", path=directory)
    frames = [read_pgm(p) for p in paths]
    shape = frames[0].shape
    for p, fr in zip(paths, frames):
        if fr.shape != shape:
            raise FormatError(
                f"frame size {fr.shape[1]}x{fr.shape[0]} differs from first frame "
                f"{shape[1]}x{shape[0]}",
                path=p,
            )
    return np.stack(frames)
