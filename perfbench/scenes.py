"""The benchmark's workloads: seeded synthetic videos with exact ground truth,
and the PGM reading and writing the benchmark does without the program.

Every scene has a unimodal background, one bimodal flicker region (the second
mode on odd frames) and several moving events.  The first ``history`` frames
hold background only; events appear in the streamed frames after them.  The
layout is fixed per scene; the seed draws only the noise, so every seed
stresses the same code paths with the same amount of work.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

MIN_BLOB = 15  # the pipeline's --min-blob; every event is at least this big


@dataclass(frozen=True)
class Event:
    """A rectangle of event intensity on stream frames t0 <= s < t1, moving
    (vx, vy) pixels per frame from (x, y)."""

    x: int
    y: int
    w: int
    h: int
    t0: int
    t1: int
    vx: int = 0
    vy: int = 0

    def rect(self, s: int) -> tuple[int, int, int, int]:
        d = s - self.t0
        return self.x + self.vx * d, self.y + self.vy * d, self.w, self.h


@dataclass(frozen=True)
class Scene:
    name: str
    width: int
    height: int
    levels: int                      # 256 (8-bit) or 65536 (16-bit)
    stream: int                      # frames streamed after the history
    background: tuple[float, float]  # mean, stddev
    flicker: tuple[int, int, int, int, float, float]  # x, y, w, h, mean, stddev
    event_level: tuple[float, float]  # mean, stddev
    events: tuple[Event, ...]
    kmax: int
    mode: str                        # run --mode
    tail_pct: float                  # percentile behind frame_ms_tail
    freeze: tuple[int, ...]          # stream frames re-run with run --freeze
    history: int = 100
    runs: int = 1                    # run calls the stream is split into

    @property
    def segment(self) -> int:
        """Frames per ``run`` call."""
        return self.stream // self.runs

    def __post_init__(self):
        for e in self.events:
            if e.w * e.h < MIN_BLOB or not 0 <= e.t0 < e.t1 <= self.stream:
                raise ValueError(f"{self.name}: bad event {e}")
            for s in (e.t0, e.t1 - 1):
                x, y, w, h = e.rect(s)
                if x < 0 or y < 0 or x + w > self.width or y + h > self.height:
                    raise ValueError(f"{self.name}: event {e} leaves the frame")
        if self.stream % self.runs:
            raise ValueError(f"{self.name}: {self.runs} runs do not split the stream")
        if self.stream * (1.0 - self.tail_pct / 100.0) < 10.0 - 1e-9:
            raise ValueError(f"{self.name}: fewer than ten frames beyond the tail")


def crossing_events(width, height, stream, size, paths):
    """One event per entry of ``paths``, spread evenly over the stream:
    ``("lr", row)`` crosses left to right at that row, ``("tb", col)`` top to
    bottom at that column and ``("diag", 0)`` diagonally from the top-left
    corner."""
    w, h = size
    span = stream // len(paths)
    out = []
    for i, (kind, at) in enumerate(paths):
        t0 = i * span + span // 4
        if kind == "lr":
            out.append(Event(0, at, w, h, t0, t0 + width - w + 1, 1, 0))
        elif kind == "tb":
            out.append(Event(at, 0, w, h, t0, t0 + height - h + 1, 0, 1))
        else:
            length = min(width - w, height - h) + 1
            out.append(Event(0, 0, w, h, t0, t0 + length, 1, 1))
    return tuple(out)


# On a 16x16 frame no event enters on pixels that an earlier event crossed:
# left-right events run below the top three rows, top-bottom events right of
# the left five columns, and the diagonal comes last.  A pixel keeps an
# event's spawned component for a hundred frames or more, so a later event
# could otherwise lose some of its entry pixels to background, and whether
# its 15-pixel entry blob survives the blob filter would depend on the seed.
FRESH_16 = (("lr", 3), ("tb", 5), ("lr", 8), ("tb", 10), ("lr", 13), ("diag", 0))


SCENES = {
    s.name: s for s in (
        Scene("gray8-exact", 16, 16, 256, 400, (100.0, 3.0),
              (9, 9, 6, 6, 140.0, 3.0), (180.0, 6.0),
              crossing_events(16, 16, 400, (5, 3), FRESH_16), kmax=2, mode="exact",
              tail_pct=97.5, freeze=(16, 83, 250, 399)),
        # Events 200 frames apart: long enough for a crossed pixel to prune
        # the earlier event's components before the next event enters it.
        Scene("thermal16-fit", 8, 5, 65536, 800, (30000.0, 8.0),
              (5, 2, 3, 3, 30120.0, 8.0), (30200.0, 10.0),
              crossing_events(8, 5, 800, (5, 3), (("lr", 0), ("tb", 3),
                                                  ("diag", 0), ("lr", 2))),
              kmax=50, mode="approx", tail_pct=98.75,
              freeze=(25, 226, 799), runs=2),
    )
}


def render(scene: Scene, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Frames (history + stream, H, W) as uint8/uint16 and the streamed
    frames' ground truth (stream, H, W) with foreground 255."""
    rng = np.random.default_rng(seed)
    n = scene.history + scene.stream
    shape = (n, scene.height, scene.width)
    frames = rng.normal(*scene.background, shape)
    x, y, w, h, mean, sd = scene.flicker
    alt = rng.normal(mean, sd, (n, h, w))
    frames[1::2, y:y + h, x:x + w] = alt[1::2]
    gt = np.zeros((scene.stream,) + shape[1:], dtype=np.uint8)
    for e in scene.events:
        for s in range(e.t0, e.t1):
            ex, ey, ew, eh = e.rect(s)
            frames[scene.history + s, ey:ey + eh, ex:ex + ew] = \
                rng.normal(*scene.event_level, (eh, ew))
            gt[s, ey:ey + eh, ex:ex + ew] = 255
    top = scene.levels - 1
    dtype = np.uint8 if top <= 255 else np.uint16
    return np.rint(np.clip(frames, 0, top)).astype(dtype), gt


def frame_name(t: int) -> str:
    return f"frame_{t:06d}.pgm"


def write_pgm(array: np.ndarray, path: str) -> None:
    """Binary PGM; 16-bit samples big-endian."""
    height, width = array.shape
    maxval = 255 if array.dtype == np.uint8 else 65535
    payload = array.astype(">u2" if maxval == 65535 else np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (width, height, maxval) + payload)


def read_pgm(path: str) -> np.ndarray:
    """Binary PGM without comments, as the pipeline writes it."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(255|65535)\s", data)
    if header is None:
        raise ValueError(f"{path}: not a binary 8- or 16-bit PGM")
    width, height, maxval = (int(t) for t in header.groups())
    dtype = np.dtype(np.uint8) if maxval == 255 else np.dtype(">u2")
    size = width * height * dtype.itemsize
    payload = data[header.end():header.end() + size]
    if len(payload) != size:
        raise ValueError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype=dtype).reshape(height, width).astype(
        np.uint8 if maxval == 255 else np.uint16)
