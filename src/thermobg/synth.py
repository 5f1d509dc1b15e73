"""Seeded synthetic data: mixture sample sets and composable test videos
with exact ground truth.

Videos draw every pixel from its own RNG substream (PCG64 under a spawn key
of the pixel coordinates), so the generated sequence depends only on the
scenario and seed, never on iteration order or worker count.  Scenarios can
also be described by a small key-value text file; see parse_scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frameio import FrameSequence

RNG_ALGORITHM = "pcg64-seedseq"  # recorded in generated metadata


@dataclass(frozen=True)
class GaussianSpec:
    mean: float
    stddev: float
    count: int

    def __post_init__(self):
        if not (self.stddev > 0.0):
            raise ValueError("stddev must be positive")
        if self.count < 1:
            raise ValueError("count must be positive")


def gen_mixture_samples(specs, seed) -> np.ndarray:
    """Deterministic draws, concatenated per spec in order."""
    rng = np.random.default_rng(seed)
    parts = [rng.normal(s.mean, s.stddev, s.count) for s in specs]
    return np.concatenate(parts) if parts else np.empty(0)


def fitting_demo_specs() -> list[GaussianSpec]:
    """Three non-overlapping Gaussians for the fitting experiment.  The
    spacing (well over 8 sigma) is our choice; only the three-component
    structure is prescribed."""
    return [GaussianSpec(30.0, 3.0, 100),
            GaussianSpec(110.0, 4.0, 100),
            GaussianSpec(200.0, 5.0, 100)]


def adaptation_demo_specs() -> tuple[list[GaussianSpec], GaussianSpec]:
    """Initial two-mode training set and the overlapping third mode that the
    updating mechanism has to discover."""
    return ([GaussianSpec(16.0, 1.5, 50), GaussianSpec(50.0, 2.0, 50)],
            GaussianSpec(21.0, 1.0, 50))


@dataclass
class VideoEvent:
    """A rectangle of foreground intensity active on frames t0 <= t < t1,
    translating by (vx, vy) pixels per frame from its start position."""

    x: int
    y: int
    width: int
    height: int
    t0: int
    t1: int
    mean: float
    stddev: float
    vx: int = 0
    vy: int = 0

    def rect_at(self, t: int) -> tuple[int, int, int, int]:
        dt = t - self.t0
        return (self.x + self.vx * dt, self.y + self.vy * dt,
                self.width, self.height)

    def active(self, t: int) -> bool:
        return self.t0 <= t < self.t1


@dataclass
class BimodalRegion:
    """A rectangle whose pixels alternate per frame between the scenario
    background and a second mode (sky/branches style flicker)."""

    x: int
    y: int
    width: int
    height: int
    mean: float
    stddev: float


@dataclass
class VideoScenario:
    width: int
    height: int
    frames: int
    background: tuple[float, float]  # (mean, stddev)
    seed: int = 0
    levels: int = 256
    bimodal: list[BimodalRegion] = field(default_factory=list)
    events: list[VideoEvent] = field(default_factory=list)

    def __post_init__(self):
        if min(self.width, self.height, self.frames) < 1:
            raise ValueError("width, height and frames must be positive")
        if not (self.background[1] > 0.0):
            raise ValueError("background stddev must be positive")
        for r in self.bimodal:
            if not _rect_inside(r.x, r.y, r.width, r.height,
                                self.width, self.height):
                raise ValueError("bimodal region exceeds the frame bounds")
        for e in self.events:
            if not (0 <= e.t0 < e.t1 <= self.frames):
                raise ValueError("event span must lie within the video")
            for t in (e.t0, e.t1 - 1):
                if not _rect_inside(*e.rect_at(t), self.width, self.height):
                    raise ValueError("event rectangle leaves the frame bounds")


def gen_video(scenario: VideoScenario) -> tuple[FrameSequence, np.ndarray]:
    """Render a scenario into frames plus per-frame ground-truth masks.

    Background pixels draw from per-pixel substreams; bimodal regions
    alternate modes by frame parity; event rectangles overwrite their pixels
    and are marked foreground in the ground truth for their span.
    """
    h, w, t_total = scenario.height, scenario.width, scenario.frames
    frames = np.empty((t_total, h, w), dtype=np.float64)
    bg_mean, bg_std = scenario.background

    in_bimodal = np.full((h, w), -1, dtype=np.int64)
    for i, r in enumerate(scenario.bimodal):
        in_bimodal[r.y:r.y + r.height, r.x:r.x + r.width] = i

    parity = np.arange(t_total) % 2 == 1
    for r in range(h):
        for c in range(w):
            ss = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(r, c))
            rng = np.random.Generator(np.random.PCG64(ss))
            base = rng.normal(bg_mean, bg_std, t_total)
            region = in_bimodal[r, c]
            if region >= 0:
                spec = scenario.bimodal[region]
                alt = rng.normal(spec.mean, spec.stddev, t_total)
                base = np.where(parity, alt, base)
            frames[:, r, c] = base

    gt = np.zeros((t_total, h, w), dtype=np.uint8)
    for i, e in enumerate(scenario.events):
        for t in range(e.t0, e.t1):
            ex, ey, ew, eh = e.rect_at(t)
            ss = np.random.SeedSequence(entropy=scenario.seed,
                                        spawn_key=(2, i, t))
            rng = np.random.Generator(np.random.PCG64(ss))
            frames[t, ey:ey + eh, ex:ex + ew] = \
                rng.normal(e.mean, e.stddev, (eh, ew))
            gt[t, ey:ey + eh, ex:ex + ew] = 1

    seq = FrameSequence(frames, intensity_levels=scenario.levels)
    return seq, gt


def quantize_frames(seq: FrameSequence) -> np.ndarray:
    """Round and clip to the sequence's integer intensity range."""
    top = seq.intensity_levels - 1
    out = np.rint(np.clip(seq.frames, 0, top))
    return out.astype(np.uint8 if top <= 255 else np.uint16)


def parse_scenario(text: str) -> VideoScenario:
    """Parse the key-value scenario format.

    One ``key = values`` pair per line, '#' starts a comment.  Keys:
      width, height, frames, seed, levels     integers
      background = <mean> <stddev>
      bimodal   = <x> <y> <w> <h> <mean> <stddev>        (repeatable)
      event     = <x> <y> <w> <h> <t0> <t1> <mean> <stddev> [<vx> <vy>]
                                                          (repeatable)
    """
    fields: dict[str, int] = {}
    background = None
    bimodal: list[BimodalRegion] = []
    events: list[VideoEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"scenario line {lineno}: expected 'key = values'")
        key, _, rhs = line.partition("=")
        key = key.strip().lower()
        vals = rhs.replace(",", " ").split()
        try:
            nums = [float(v) for v in vals]
        except ValueError as exc:
            raise ValueError(f"scenario line {lineno}: {exc}") from exc
        if key in ("width", "height", "frames", "seed", "levels"):
            if len(nums) != 1:
                raise ValueError(f"scenario line {lineno}: {key} takes one value")
            fields[key] = _integers(nums, lineno, key)[0]
        elif key == "background":
            if len(nums) != 2:
                raise ValueError(
                    f"scenario line {lineno}: background takes mean stddev")
            background = (nums[0], nums[1])
        elif key == "bimodal":
            if len(nums) != 6:
                raise ValueError(
                    f"scenario line {lineno}: bimodal takes x y w h mean stddev")
            bimodal.append(BimodalRegion(
                *_integers(nums[:4], lineno, key), nums[4], nums[5]))
        elif key == "event":
            if len(nums) not in (8, 10):
                raise ValueError(
                    f"scenario line {lineno}: event takes x y w h t0 t1 mean "
                    f"stddev [vx vy]")
            x, y, w, h, t0, t1, *v = _integers(nums[:6] + nums[8:], lineno,
                                               key)
            events.append(VideoEvent(x, y, w, h, t0, t1, nums[6], nums[7],
                                     *v))
        else:
            raise ValueError(f"scenario line {lineno}: unknown key {key!r}")

    missing = {"width", "height", "frames"} - fields.keys()
    if missing or background is None:
        need = sorted(missing | ({"background"} if background is None else set()))
        raise ValueError(f"scenario is missing required keys: {', '.join(need)}")
    return VideoScenario(width=fields["width"], height=fields["height"],
                         frames=fields["frames"], background=background,
                         seed=fields.get("seed", 0),
                         levels=fields.get("levels", 256),
                         bimodal=bimodal, events=events)


def _integers(nums, lineno: int, key: str) -> list[int]:
    """The values as ints; a value with a fractional part is an error."""
    for v in nums:
        if not v.is_integer():
            raise ValueError(f"scenario line {lineno}: {key} takes integer "
                             f"values, got {v:g}")
    return [int(v) for v in nums]


def load_scenario(path) -> VideoScenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _rect_inside(x, y, w, h, width, height) -> bool:
    return x >= 0 and y >= 0 and w >= 1 and h >= 1 \
        and x + w <= width and y + h <= height
