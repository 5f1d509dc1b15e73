"""Time two thermobg source trees fit by fit and frame by frame in one process.

    python3 tools/interleave_frames.py SRC_A SRC_B WORKLOAD [--seed S] [--reps R]

SRC_A and SRC_B are directories holding the ``thermobg`` package, such as the
``src`` directories of two checkouts; WORKLOAD names a scene of
perfbench/scenes.py, or is ``grid32x24``: a fit-only 32x24 16-bit grid whose
100 history frames are ``np.rint`` of N(30000, 8^2) drawn by
``np.random.default_rng(seed)``, fitted at ``--kmax 50``, with no stream.
The scene's video is rendered once.  Both trees are
imported in this process under distinct module names, and each follows the
chain perfbench runs through ``thermobg.cli``: fit the history frames, then
for each ``run`` call reload the model from its VIMM1 file (with an empty
sample pool in exact mode) and stream that call's frames.  Each repetition
times both trees' ``initialize_grid``, A first on even repetitions and B
first on odd ones.  The stream frames go through the two trees'
``process_frame`` in alternating order, A first on one frame and B first on
the next, each call timed on its own.  So a host whose speed drifts between
runs slows both trees alike.

For every repetition prints each tree's fit time and ``process_frame``
median and sum, with the ratios B / A, and the fit's stage seconds
(``PixelGrid.fit_seconds``: ``kmeanspp_s``, ``em_s``, ``bound_s``, and
``other_s``, the rest of the fit, which is its bookkeeping) with B / A;
over all repetitions, the fit medians and the per-frame figures.  Exits 0
when both trees wrote the same fitted and final VIMM1 bytes (only the
fitted ones for ``grid32x24``) in every repetition, 1 when they differ, and
2 on a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import math
import os
import statistics
import sys
import tempfile
import time

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:  # before numpy is imported: one thread does the work
    os.environ[_name] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from checks import P_BG, THRESHOLD  # noqa: E402
from scenes import MIN_BLOB, SCENES, render  # noqa: E402


GRID = "grid32x24"


@dataclasses.dataclass(frozen=True)
class FitOnly:
    """A workload fitted and not streamed (the fields Tree and stream
    read)."""

    name: str
    levels: int
    kmax: int
    history: int = 100
    runs: int = 0


def workload(name, seed):
    """The named workload and its frames (history, then stream)."""
    if name == GRID:
        rng = np.random.default_rng(seed)
        frames = np.rint(rng.normal(30000.0, 8.0, (100, 24, 32)))
        return FitOnly(GRID, levels=65536, kmax=50), frames
    scene = SCENES[name]
    return scene, render(scene, seed)[0].astype(np.float64)


def load_tree(src, name):
    """The package under ``src``/thermobg, imported as ``name``."""
    package = os.path.join(os.path.abspath(src), "thermobg")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Tree:
    """One tree's pipeline over the scene, with its initialize_grid and
    process_frame times."""

    def __init__(self, pkg, scene, frames, work):
        self.pkg, self.scene, self.work = pkg, scene, work
        self.times = []
        history = pkg.FrameSequence(frames[:scene.history],
                                    intensity_levels=scene.levels)
        cfg = pkg.FitConfig(k_max=scene.kmax, rng_seed=0)
        t0 = time.perf_counter()
        grid = pkg.initialize_grid(history, cfg)
        self.fit_s = time.perf_counter() - t0
        self.stages = dict(grid.fit_seconds)
        self.stages["other_s"] = self.fit_s - sum(self.stages.values())
        self.fitted = os.path.join(work, "fitted.vimm")
        pkg.save_grid(grid, self.fitted)
        self.model = self.fitted
        self.grid = None

    def start_run(self) -> None:
        """What ``run`` does before its first frame."""
        pkg = self.pkg
        seg = pkg.SegmentationConfig(p_bg=P_BG, decision_threshold=THRESHOLD,
                                     min_blob_area=MIN_BLOB, connectivity=8)
        self.grid = pkg.load_grid(self.model, seg_config=seg)
        if self.scene.mode == "exact":
            self.grid.pool = pkg.SamplePool(
                self.grid.width * self.grid.height,
                self.grid.state.history_len)

    def frame(self, frame) -> None:
        t0 = time.perf_counter()
        self.pkg.process_frame(self.grid, frame)
        self.times.append(time.perf_counter() - t0)

    def end_run(self, j: int) -> None:
        self.model = os.path.join(self.work, f"run{j}.vimm")
        self.pkg.save_grid(self.grid, self.model)

    def model_bytes(self) -> tuple[bytes, bytes]:
        """The fitted and the final VIMM1 files."""
        out = []
        for path in (self.fitted, self.model):
            with open(path, "rb") as fh:
                out.append(fh.read())
        return tuple(out)


def stream(trees, scene, frames) -> None:
    stream_frames = frames[scene.history:]
    for j in range(scene.runs):
        for tree in trees:
            tree.start_run()
        for t in range(j * scene.segment, (j + 1) * scene.segment):
            order = trees if t % 2 == 0 else trees[::-1]
            for tree in order:
                tree.frame(stream_frames[t])
        for tree in trees:
            tree.end_run(j)


def summary(label, fits_a, fits_b, times_a, times_b) -> str:
    fit_a, fit_b = statistics.median(fits_a), statistics.median(fits_b)
    fits = (f"{label}: fit{' median' if len(fits_a) > 1 else ''} "
            f"A {fit_a:.3f} s, B {fit_b:.3f} s, B/A {fit_b / fit_a:.3f}")
    if not times_a:
        return fits
    med_a, med_b = statistics.median(times_a), statistics.median(times_b)
    sum_a, sum_b = sum(times_a), sum(times_b)
    return (f"{fits}; frame median A {med_a * 1e3:.3f} ms, "
            f"B {med_b * 1e3:.3f} ms, B/A {med_b / med_a:.3f}; summed "
            f"A {sum_a:.3f} s, B {sum_b:.3f} s, B/A {sum_b / sum_a:.3f}")


def stage_summary(a, b) -> str:
    """The fit's stage seconds of trees A and B, with B / A."""
    parts = []
    for name in a.stages:
        if name in b.stages:
            sa, sb = a.stages[name], b.stages[name]
            ratio = sb / sa if sa else math.nan
            parts.append(f"{name} A {sa:.3f} s, B {sb:.3f} s, B/A {ratio:.3f}")
    return "fit stages: " + "; ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a")
    ap.add_argument("src_b")
    ap.add_argument("workload", choices=sorted(SCENES) + [GRID])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args(argv)
    for src in (args.src_a, args.src_b):
        if not os.path.isfile(os.path.join(src, "thermobg", "__init__.py")):
            ap.error(f"no thermobg package under {src}")
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    scene, frames = workload(args.workload, args.seed)
    compared = ("fitted", "final") if scene.runs else ("fitted",)
    pkgs = [load_tree(args.src_a, "thermobg_a"),
            load_tree(args.src_b, "thermobg_b")]
    fits_a, fits_b, all_a, all_b, same = [], [], [], [], True
    with tempfile.TemporaryDirectory(prefix="interleave_frames-") as work:
        for rep in range(args.reps):
            sides = list(zip("ab", pkgs))
            trees = {}
            for side, pkg in sides if rep % 2 == 0 else sides[::-1]:
                here = os.path.join(work, f"{rep}{side}")
                os.makedirs(here)
                trees[side] = Tree(pkg, scene, frames, here)
            a, b = trees["a"], trees["b"]
            stream([a, b], scene, frames)
            print(summary(f"{scene.name} seed {args.seed} rep {rep}",
                          [a.fit_s], [b.fit_s], a.times, b.times))
            print(stage_summary(a, b), flush=True)
            fits_a.append(a.fit_s)
            fits_b.append(b.fit_s)
            all_a += a.times
            all_b += b.times
            for what, bytes_a, bytes_b in zip(compared, a.model_bytes(),
                                              b.model_bytes()):
                if bytes_a != bytes_b:
                    print(f"rep {rep}: {what} VIMM1 files differ")
                    same = False
    print(summary(f"{scene.name} seed {args.seed} all {args.reps} reps",
                  fits_a, fits_b, all_a, all_b))
    print(f"{' and '.join(compared)} models identical" if same
          else "models differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
