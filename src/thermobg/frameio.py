"""Bit-exact frame and mask file I/O.

Input frames are binary PGM (P5) at 8 or 16 bits, or headerless raw dumps
with declared geometry.  Masks are written as 8-bit PGM with foreground 255;
posteriors as 16-bit PGM of round(p * 65535).  16-bit PGM samples are
big-endian per the format; raw input declares its endianness.
The readers return a FrameSequence.  This module imports nothing else from
the package, so every other layer can build on it.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass

import numpy as np


class FrameFormatError(ValueError):
    pass


@dataclass
class FrameSequence:
    """Ordered frames of intensities with their quantization depth.

    ``frames`` has shape (n_frames, height, width).  ``frame_rate`` is
    carried as metadata only.
    """

    frames: np.ndarray
    intensity_levels: int = 256
    frame_rate: float | None = None

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3:
            raise ValueError("frames must have shape (n_frames, height, width)")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


def read_pgm(path):
    """Read a binary (P5) PGM with maxval 255 or 65535.

    Returns (array, maxval) with dtype uint8 or uint16; 16-bit samples are
    decoded big-endian.  ASCII variants raise an unsupported-variant error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _next_token(data, 0)
    if magic in (b"P2", b"P1", b"P3", b"P6"):
        raise FrameFormatError(
            f"{path}: unsupported PGM variant {magic.decode()} (only binary P5)")
    if magic != b"P5":
        raise FrameFormatError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        width_tok, pos = _next_token(data, pos)
        height_tok, pos = _next_token(data, pos)
        maxval_tok, pos = _next_token(data, pos)
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except ValueError as exc:
        raise FrameFormatError(f"{path}: malformed PGM header: {exc}") from exc
    if width < 1 or height < 1:
        raise FrameFormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval == 255:
        dtype = np.dtype(np.uint8)
    elif maxval == 65535:
        dtype = np.dtype(">u2")
    else:
        raise FrameFormatError(
            f"{path}: unsupported maxval {maxval} (expected 255 or 65535)")

    payload = data[pos:]
    expected = width * height * dtype.itemsize
    if len(payload) < expected:
        raise FrameFormatError(
            f"{path}: truncated payload, expected {expected} bytes, "
            f"got {len(payload)}")
    arr = np.frombuffer(payload[:expected], dtype=dtype).reshape(height, width)
    if maxval == 65535:
        arr = arr.astype(np.uint16)
    return arr.copy(), maxval


def write_pgm(array, path, maxval: int | None = None) -> None:
    """Write a 2-D array as binary PGM (8-bit, or big-endian 16-bit)."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ValueError("PGM payload must be 2-D")
    if maxval is None:
        maxval = 65535 if arr.dtype.itemsize > 1 else 255
    if maxval == 255:
        out = arr.astype(np.uint8)
    elif maxval == 65535:
        out = arr.astype(np.uint16).astype(">u2")
    else:
        raise ValueError("maxval must be 255 or 65535")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
        fh.write(out.tobytes())


def write_mask(labels, path) -> None:
    """Write a label array as 8-bit PGM: nonzero (foreground) 255, else 0."""
    labels = np.asarray(labels)
    write_pgm(np.where(labels > 0, 255, 0).astype(np.uint8), path, 255)


def read_mask(path) -> np.ndarray:
    """Read a mask PGM back into {0, 1} labels (nonzero -> foreground)."""
    arr, _ = read_pgm(path)
    return (arr > 0).astype(np.uint8)


def write_posterior(posterior, path) -> None:
    """Quantize a [0, 1] posterior map to 16-bit PGM."""
    p = np.clip(np.asarray(posterior, dtype=np.float64), 0.0, 1.0)
    write_pgm(np.rint(p * 65535.0).astype(np.uint16), path, 65535)


def read_raw_sequence(path, width: int, height: int, depth: int = 16,
                      endianness: str = "little",
                      limit: int | None = None) -> FrameSequence:
    """Read a headerless raw intensity dump as consecutive frames, at most
    the first ``limit`` of them when a limit is given.

    The file length must be an exact multiple of width*height*bytes-per-
    sample, whatever the limit; anything else is reported with the expected
    and actual counts.
    """
    if depth not in (8, 16):
        raise FrameFormatError(f"unsupported raw depth {depth} (8 or 16)")
    if endianness not in ("little", "big"):
        raise FrameFormatError(f"unsupported endianness {endianness!r}")
    dtype = np.dtype(np.uint8) if depth == 8 else \
        np.dtype("<u2" if endianness == "little" else ">u2")
    size = os.path.getsize(path)
    frame_bytes = width * height * dtype.itemsize
    if frame_bytes == 0 or size % frame_bytes != 0:
        raise FrameFormatError(
            f"{path}: file size {size} is not a multiple of the "
            f"{frame_bytes}-byte frame ({width}x{height}x{dtype.itemsize})")
    n_frames = size // frame_bytes
    if limit is not None:
        n_frames = min(n_frames, limit)
    frames = np.fromfile(path, dtype=dtype, count=n_frames * width * height)
    frames = frames.reshape(n_frames, height, width)
    return FrameSequence(frames.astype(np.float64),
                         intensity_levels=256 if depth == 8 else 65536)


def read_pgm_sequence(pattern, limit: int | None = None
                      ) -> tuple[FrameSequence, list[str]]:
    """Load a sorted directory or glob of PGM frames as one sequence.

    With a ``limit`` only the first ``limit`` frames in sorted order are
    decoded and returned, with their paths.
    """
    if os.path.isdir(pattern):
        paths = sorted(glob.glob(os.path.join(pattern, "*.pgm")))
    else:
        paths = sorted(glob.glob(str(pattern)))
    if not paths:
        raise FrameFormatError(f"no PGM frames match {pattern!r}")
    paths = paths[:limit]
    frames = []
    maxvals = set()
    shape = None
    for p in paths:
        arr, maxval = read_pgm(p)
        if shape is None:
            shape = arr.shape
        elif arr.shape != shape:
            raise FrameFormatError(
                f"{p}: frame size {arr.shape} differs from {shape}")
        maxvals.add(maxval)
        frames.append(arr.astype(np.float64))
    if len(maxvals) > 1:
        raise FrameFormatError(f"mixed bit depths in sequence: {sorted(maxvals)}")
    levels = 256 if maxvals.pop() == 255 else 65536
    return FrameSequence(np.stack(frames), intensity_levels=levels), paths


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping '#' comments.
    Returns the token and the position just past its trailing whitespace."""
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FrameFormatError("unexpected end of header")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    token = data[start:pos]
    if pos < n:
        pos += 1  # exactly one whitespace byte separates maxval from payload
    return token, pos
