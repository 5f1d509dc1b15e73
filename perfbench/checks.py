"""Checks of one round's outputs against computations made apart from the
program: confusion counts, mask geometry and values, blob sizes by the
benchmark's own labelling, the VIMM1 model invariants, and a numpy
recomputation of frozen-model posteriors and masks.

An operation is one pixel fit or one streamed frame (the frames re-run with
``run --freeze`` count as streamed frames).  A pixel fails when its fitted or
final model breaks an invariant; a frame fails when its mask is missing or
fails a check.  Faults that belong to no single operation, such as a wrong
aggregate in the eval report, are listed in ``problems``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from scenes import MIN_BLOB, Scene, frame_name, read_pgm

P_BG = 0.6        # the pipeline's --pbg
THRESHOLD = 0.5   # the pipeline's --threshold
WEIGHT_TOL = 1e-9  # as MixtureModel.check


@dataclass
class RoundCheck:
    attempted: int
    failed_pixels: set = field(default_factory=set)
    failed_frames: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    counts: np.ndarray | None = None  # (frames, 4) tp fp tn fn
    mask_digests: list | None = None
    final_k: list | None = None  # components per pixel after the stream

    @property
    def failed(self) -> int:
        return len(self.failed_pixels) + len(self.failed_frames)


def label_blobs(fg: np.ndarray) -> np.ndarray:
    """8-connected component labels of a boolean mask (0 = background):
    every foreground pixel takes the largest label in its 3x3 neighbourhood
    until nothing changes."""
    h, w = fg.shape
    lab = np.where(fg, np.arange(1, h * w + 1).reshape(h, w), 0)
    while True:
        pad = np.pad(lab, 1)
        nb = lab.copy()
        for dy in range(3):
            for dx in range(3):
                np.maximum(nb, pad[dy:dy + h, dx:dx + w], out=nb)
        nb[~fg] = 0
        if np.array_equal(nb, lab):
            return lab
        lab = nb


def blob_areas(fg: np.ndarray) -> np.ndarray:
    lab = label_blobs(fg)
    return np.unique(lab[lab > 0], return_counts=True)[1]


def drop_small_blobs(fg: np.ndarray, min_area: int) -> np.ndarray:
    lab = label_blobs(fg)
    ids, areas = np.unique(lab[lab > 0], return_counts=True)
    return np.isin(lab, ids[areas >= min_area])


def confusion(mask: np.ndarray, gt: np.ndarray) -> tuple[int, int, int, int]:
    pred, truth = mask == 255, gt == 255
    return (int(np.sum(pred & truth)), int(np.sum(pred & ~truth)),
            int(np.sum(~pred & ~truth)), int(np.sum(~pred & truth)))


def f1_pwc(tp, fp, tn, fn) -> tuple[float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return f1, 100.0 * (fp + fn) / (tp + fp + tn + fn)


def read_model(path: str):
    """VIMM1 file -> (header (w, h, N, levels), per-pixel (w, mu, var)
    arrays).  Raises ValueError on a malformed file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = lines[0].split()
    if len(head) != 5 or head[0] != "VIMM1":
        raise ValueError(f"{path}: bad header")
    width, height, n_hist, levels = (int(v) for v in head[1:])
    pixels = []
    for line in lines[1:1 + width * height]:
        tok = line.split()
        values = np.array([float(v) for v in tok[1:]])
        if int(tok[0]) < 1 or values.size != 3 * int(tok[0]):
            raise ValueError(f"{path}: bad pixel record {line!r}")
        pixels.append((values[0::3], values[1::3], values[2::3]))
    if len(pixels) != width * height:
        raise ValueError(f"{path}: {len(pixels)} pixel records")
    return (width, height, n_hist, levels), pixels


def bad_model_pixels(pixels, n_hist: int, floor: float,
                     kmax: int | None = None) -> set:
    """Pixels that break the invariants: weights sum to 1, each weight is at
    least 1/N, means and variances finite, variances at least the floor, and
    (for a fitted model) K at most kmax."""
    bad = set()
    for i, (w, mu, var) in enumerate(pixels):
        if (abs(math.fsum(w) - 1.0) > WEIGHT_TOL
                or np.any(w < 1.0 / n_hist - WEIGHT_TOL)
                or not np.all(np.isfinite(mu)) or not np.all(np.isfinite(var))
                or np.any(var < floor)
                or (kmax is not None and w.size > kmax)):
            bad.add(i)
    return bad


def frozen_posterior(pixels, levels: int, frame: np.ndarray) -> np.ndarray:
    """p_bg * d / (d + 1/L) with d = sum_k w_k N(x; mu_k, var_k), per pixel."""
    k = max(w.size for w, _, _ in pixels)
    w = np.zeros((len(pixels), k))
    mu = np.zeros((len(pixels), k))
    var = np.ones((len(pixels), k))
    for i, (wi, mi, vi) in enumerate(pixels):
        w[i, :wi.size], mu[i, :wi.size], var[i, :wi.size] = wi, mi, vi
    x = frame.reshape(-1, 1).astype(np.float64)
    d = np.sum(w * np.exp(-0.5 * (x - mu) ** 2 / var)
               / np.sqrt(2.0 * np.pi * var), axis=1)
    p = np.clip(P_BG * d / (d + 1.0 / levels), 0.0, 1.0)
    return p.reshape(frame.shape)


def check_round(scene: Scene, frames: np.ndarray, gt: np.ndarray, out: dict,
                reference=None) -> RoundCheck:
    """Check one round's outputs.  ``out`` holds the round's paths and the
    child's result; ``reference`` is the first round's check, whose masks
    this round must repeat byte for byte."""
    n_pix = scene.width * scene.height
    stream = scene.stream
    rc = RoundCheck(attempted=n_pix + stream + len(scene.freeze))
    result = out["result"]
    floor = result.get("variance_floor", 0.0)
    steps = result.get("steps", {})
    for name, step in steps.items():
        if step["rc"] != 0:
            rc.problems.append(f"{name} exited {step['rc']}")

    # Models: the fitted one and the one the stream leaves.
    models = {}
    for key, kmax in (("fitted", scene.kmax), ("final", None)):
        try:
            head, pixels = read_model(out[key])
        except (OSError, ValueError, IndexError) as exc:
            rc.problems.append(f"{key} model: {exc}")
            rc.failed_pixels.update(range(n_pix))
            continue
        if head != (scene.width, scene.height, scene.history, scene.levels):
            rc.problems.append(f"{key} model header {head}")
            rc.failed_pixels.update(range(n_pix))
            continue
        bad = bad_model_pixels(pixels, scene.history, floor, kmax)
        if bad:
            rc.problems.append(f"{key} model: {len(bad)} pixels break invariants")
        rc.failed_pixels |= bad
        models[key] = pixels
    if "final" in models:
        rc.final_k = [w.size for w, _, _ in models["final"]]

    # Streamed masks against the ground truth and the eval report.
    eval_rows = _eval_rows(out["eval_csv"])
    counts = np.zeros((stream, 4), dtype=np.int64)
    digests = []
    for s in range(stream):
        name = frame_name(scene.history + s)
        try:
            mask = read_pgm(os.path.join(out["masks"], name))
        except (OSError, ValueError):
            rc.failed_frames.add(s)
            digests.append(None)
            continue
        digests.append(mask.tobytes())
        if (mask.shape != gt[s].shape or mask.dtype != np.uint8
                or not np.all((mask == 0) | (mask == 255))):
            rc.failed_frames.add(s)
            continue
        counts[s] = confusion(mask, gt[s])
        if (eval_rows.get(name) != tuple(counts[s])
                or np.any(blob_areas(mask == 255) < MIN_BLOB)
                or (reference is not None
                    and reference.mask_digests[s] != digests[s])):
            rc.failed_frames.add(s)
    if rc.failed_frames:
        rc.problems.append(f"{len(rc.failed_frames)} streamed frames fail")
    rc.counts, rc.mask_digests = counts, digests

    report = _eval_report(out["eval_json"])
    tp, fp, tn, fn = (int(v) for v in counts.sum(axis=0))
    if report is None or [report.get(k) for k in ("tp", "fp", "tn", "fn")] != \
            [tp, fp, tn, fn] or report.get("frames") != stream:
        rc.problems.append("eval report differs from the benchmark's counts")
    else:
        f1, pwc = f1_pwc(tp, fp, tn, fn)
        if abs(report["f1"] - f1) > 1e-12 or abs(report["pwc"] - pwc) > 1e-12:
            rc.problems.append("eval f1/pwc differ from the benchmark's")

    # Frozen re-run of a few frames against the final model.
    for j, s in enumerate(scene.freeze):
        op = stream + j
        name = frame_name(scene.history + s)
        try:
            mask = read_pgm(os.path.join(out["freeze_out"], name))
            post = read_pgm(os.path.join(out["freeze_out"], "posterior", name))
            pixels = models["final"]
        except (OSError, ValueError, KeyError):
            rc.failed_frames.add(op)
            continue
        p = frozen_posterior(pixels, scene.levels, frames[scene.history + s])
        fg = drop_small_blobs(p < THRESHOLD, MIN_BLOB)
        level = np.rint(p * 65535.0)
        if (mask.shape != fg.shape or not np.array_equal(mask == 255, fg)
                or np.any(np.abs(post.astype(np.float64) - level) > 1.0)):
            rc.failed_frames.add(op)
            rc.problems.append(f"frozen frame {s} differs from the recomputation")
    return rc


def _eval_rows(path: str) -> dict:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return {row["frame"]: tuple(int(row[k]) for k in ("tp", "fp", "tn", "fn"))
                    for row in csv.DictReader(fh)}
    except (OSError, KeyError, ValueError):
        return {}


def _eval_report(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
