"""Bit-exact frame and mask file I/O.

Input frames are binary PGM (P5) at 8 or 16 bits, or headerless raw dumps
with declared geometry.  Masks are written as 8-bit PGM with foreground 255;
posteriors as 16-bit PGM of round(p * 65535).  16-bit PGM samples are
big-endian per the format; raw input declares its endianness.
The readers return a FrameSequence.  The writers create each file either
in the calling process or, given a WriterProcess, in a child process that
runs the standard-library script _writer.py.  This module imports nothing
else from the package, so every other layer can build on it.
"""

from __future__ import annotations

import glob
import os
import re
import struct
import subprocess
import sys
from dataclasses import dataclass

import numpy as np


class FrameFormatError(ValueError):
    pass


# the P5 magic, then width, height and maxval, each after whitespace or
# comments, then the one whitespace byte that ends the header; no two
# alternatives match the same byte, so a failed match does not backtrack
_PGM_HEADER = re.compile(b"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


@dataclass
class FrameSequence:
    """Ordered frames of intensities with their quantization depth.

    ``frames`` has shape (n_frames, height, width).
    """

    frames: np.ndarray
    intensity_levels: int = 256

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
    decoded big-endian.  The magic is the file's first two bytes, and
    ASCII and colour variants raise an unsupported-variant error; the rest
    of the header is _PGM_HEADER's, with comments running to the next LF.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic in (b"P2", b"P1", b"P3", b"P6"):
        raise FrameFormatError(
            f"{path}: unsupported PGM variant {magic.decode()} (only binary P5)")
    if magic != b"P5":
        raise FrameFormatError(f"{path}: not a PGM file (magic {magic!r})")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise FrameFormatError(f"{path}: malformed PGM header")
    width, height, maxval = (int(v) for v in header.groups())
    if width < 1 or height < 1:
        raise FrameFormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval == 255:
        dtype = np.dtype(np.uint8)
    elif maxval == 65535:
        dtype = np.dtype(">u2")
    else:
        raise FrameFormatError(
            f"{path}: unsupported maxval {maxval} (expected 255 or 65535)")

    payload = data[header.end():]
    expected = width * height * dtype.itemsize
    if len(payload) < expected:
        raise FrameFormatError(
            f"{path}: truncated payload, expected {expected} bytes, "
            f"got {len(payload)}")
    arr = np.frombuffer(payload[:expected], dtype=dtype).reshape(height, width)
    if maxval == 65535:
        arr = arr.astype(np.uint16)
    return arr.copy(), maxval


def encode_pgm(array, maxval: int | None = None) -> bytes:
    """A 2-D array as the bytes of a binary PGM file (8-bit, or big-endian
    16-bit)."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ValueError("PGM payload must be 2-D")
    if maxval is None:
        maxval = 65535 if arr.dtype.itemsize > 1 else 255
    if maxval == 255:
        out = arr.astype(np.uint8, copy=False)
    elif maxval == 65535:
        out = arr.astype(np.uint16, copy=False).astype(">u2")
    else:
        raise ValueError("maxval must be 255 or 65535")
    height, width = arr.shape
    return b"P5\n%d %d\n%d\n" % (width, height, maxval) + out.tobytes()


def write_pgm(array, path, maxval: int | None = None,
              writer: WriterProcess | None = None) -> None:
    """Write a 2-D array as binary PGM (encode_pgm); through ``writer``'s
    child process when one is given."""
    data = encode_pgm(array, maxval)
    if writer is not None:
        writer.send(path, data)
        return
    with open(path, "wb") as fh:
        fh.write(data)


def write_mask(labels, path, writer: WriterProcess | None = None) -> None:
    """Write a label array as 8-bit PGM: nonzero (foreground) 255, else 0."""
    labels = np.asarray(labels)
    write_pgm(np.where(labels > 0, 255, 0).astype(np.uint8), path, 255,
              writer)


def read_mask(path) -> np.ndarray:
    """Read a mask PGM back into {0, 1} labels (nonzero -> foreground)."""
    arr, _ = read_pgm(path)
    return (arr > 0).astype(np.uint8)


def write_posterior(posterior, path,
                    writer: WriterProcess | None = None) -> None:
    """Quantize a [0, 1] posterior map to 16-bit PGM."""
    p = np.clip(np.asarray(posterior, dtype=np.float64), 0.0, 1.0)
    write_pgm(np.rint(p * 65535.0).astype(np.uint16), path, 65535, writer)


# the record formats of _writer.py: a record on the writer's stdin is the
# path's and the file's length, then both; a report back, the errno, then
# the path that failed
_RECORD = struct.Struct("<II")
_REPORT = struct.Struct("<i")
_WRITER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_writer.py")


class WriterProcess:
    """Creates files in a child process, in the order they are sent, so
    that the loop sending them does not wait on the file system.

    The child, _writer.py run by this interpreter with only the standard
    library, is started when the writer is made; it shares no memory with
    this process.  ``send`` hands it a path and the file's bytes over a
    pipe; ``close``, or leaving a ``with`` block, ends the pipe and reaps
    the child, so once it returns every file sent has been written and no
    process is left.  The child stops at the first file it cannot write and
    reports the errno and the path; the next ``send``, or ``close``, then
    raises an OSError of the same subclass (IsADirectoryError,
    PermissionError, ...) for that path.  A ``with`` block that exits on an
    exception of its own keeps that exception.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, "-I", "-S", _WRITER],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE)

    def send(self, path, data: bytes) -> None:
        """Queue ``data`` to be written as the file ``path``."""
        name = os.fsencode(path)
        pipe = self._proc.stdin
        try:
            pipe.write(_RECORD.pack(len(name), len(data)))
            pipe.write(name)
            pipe.write(data)
        except BrokenPipeError:  # the child has stopped: raise its error
            self.close()
            raise

    def close(self) -> None:
        """Wait until every file sent is written and the child has exited;
        raise the error that stopped it, if any.  Later calls do nothing."""
        proc = self._proc
        if proc.returncode is not None:
            return  # reaped already
        # closes stdin, ignoring a BrokenPipeError, and reads the report
        report, _ = proc.communicate()
        if report:
            (errno,) = _REPORT.unpack_from(report)
            raise OSError(errno, os.strerror(errno),
                          os.fsdecode(report[_REPORT.size:]))
        if proc.returncode:
            raise OSError(f"writer process exited with status "
                          f"{proc.returncode}")

    def __enter__(self) -> "WriterProcess":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except OSError:
            if exc_type is None:
                raise  # else the exception leaving the block is reported


def read_raw_sequence(path, width: int, height: int, depth: int = 16,
                      endianness: str = "little",
                      limit: int | None = None) -> FrameSequence:
    """Read a headerless raw intensity dump as consecutive frames, at most
    the first ``limit`` of them when a limit is given; a limit below 1
    raises ValueError.

    The file length must be an exact multiple of width*height*bytes-per-
    sample, whatever the limit; anything else is reported with the expected
    and actual counts.
    """
    _check_limit(limit)
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


def _check_limit(limit) -> None:
    """A frame limit, where given, is at least 1."""
    if limit is not None and limit < 1:
        raise ValueError(f"frame limit must be at least 1, got {limit}")


def read_pgm_sequence(pattern, limit: int | None = None
                      ) -> tuple[FrameSequence, list[str]]:
    """Load a sorted directory or glob of PGM frames as one sequence.

    With a ``limit`` only the first ``limit`` frames in sorted order are
    decoded and returned, with their paths; a limit below 1 raises
    ValueError.
    """
    _check_limit(limit)
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
