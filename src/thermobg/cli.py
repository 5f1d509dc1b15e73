"""Command line for the background-subtraction pipeline.

Subcommands: ``fit`` (estimate per-pixel models), ``run`` (stream frames into
masks), ``eval`` (score masks against ground truth), ``synth`` (regenerate
the synthetic experiments / render scenario videos) and ``bench`` (streaming
throughput).  Every command with a seed is bit-reproducible across runs; each
writes a manifest of its arguments next to its outputs.

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure
(unconverged fit under --strict).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__, frameio
from .adapt import MODE_EXACT, AdaptationConfig, HistoryPool, SamplePool
from .core import MixtureModel, MixtureState, mixture_density
from .engine import (ModelFormatError, PixelGrid, initialize_grid, load_grid,
                     process_frame, save_grid)
from .fit import FitConfig, fit
from .frameio import (FrameFormatError, FrameSequence, read_pgm, write_mask,
                      write_posterior)
from .metrics import ConfusionCounts, accumulate, metrics
from .segment import SegmentationConfig
from .synth import (RNG_ALGORITHM, GaussianSpec, adaptation_demo_specs,
                    fitting_demo_specs, gen_mixture_samples, gen_video,
                    load_scenario, quantize_frames)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FrameFormatError, ModelFormatError, FileNotFoundError,
            NotADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def _build_parser() -> _Parser:
    p = _Parser(prog="thermobg",
                description="Streaming background subtraction with "
                            "variational per-pixel Gaussian mixtures")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    f = sub.add_parser("fit", help="fit per-pixel background models")
    _add_input_args(f)
    f.add_argument("--history", type=int, default=100,
                   help="frames used per pixel (default 100)")
    f.add_argument("--kmax", type=int, default=50,
                   help="maximum mixture components (default 50)")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", required=True, help="output model file (VIMM1)")
    f.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored: fit runs every pixel in one "
                        "vectorised batch")
    f.add_argument("--strict", action="store_true",
                   help="fail with exit 3 when any pixel fit is unconverged")
    f.set_defaults(func=cmd_fit)

    r = sub.add_parser("run", help="stream frames through a model")
    _add_input_args(r)
    r.add_argument("--model", required=True, help="VIMM1 model file")
    r.add_argument("--outdir", required=True)
    r.add_argument("--pbg", type=float, default=0.6)
    r.add_argument("--threshold", type=float, default=0.5)
    r.add_argument("--min-blob", type=int, default=15)
    r.add_argument("--connectivity", type=int, default=8, choices=(4, 8))
    r.add_argument("--mode", choices=("approx", "exact"), default="approx")
    r.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored: run streams each frame as "
                        "one vectorised pass over all pixels")
    r.add_argument("--save-posterior", action="store_true")
    r.add_argument("--freeze", action="store_true",
                   help="classify without updating the models")
    r.add_argument("--out-model", default=None,
                   help="path for the updated model "
                        "(default <outdir>/model.vimm)")
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("eval", help="score predicted masks against ground truth")
    e.add_argument("--pred", required=True, help="directory of predicted masks")
    e.add_argument("--gt", required=True, help="directory of ground-truth masks")
    e.add_argument("--out", default=None, help="write aggregate metrics JSON here")
    e.add_argument("--sample", type=int, default=None,
                   help="evaluate this many uniformly spaced frames")
    e.add_argument("--ignore", type=int, default=128,
                   help="ground-truth label excluded from scoring")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("synth", help="synthetic experiments and videos")
    ssub = s.add_subparsers(dest="demo", required=True, parser_class=_Parser)
    sf = ssub.add_parser("fit-demo", help="three-Gaussian fitting experiment")
    sf.add_argument("--seed", type=int, default=1)
    sf.add_argument("--outdir", required=True)
    sf.set_defaults(func=cmd_synth_fit_demo)
    su = ssub.add_parser("update-demo", help="streaming adaptation experiment")
    su.add_argument("--seed", type=int, default=1)
    su.add_argument("--outdir", required=True)
    su.add_argument("--mode", choices=("approx", "exact"), default="approx")
    su.set_defaults(func=cmd_synth_update_demo)
    sv = ssub.add_parser("video", help="render a scenario file to frames + gt")
    sv.add_argument("--config", required=True)
    sv.add_argument("--outdir", required=True)
    sv.set_defaults(func=cmd_synth_video)

    b = sub.add_parser("bench", help="streaming throughput")
    b.add_argument("--size", action="append", default=None,
                   help="WxH, repeatable (default 320x240 and 640x480)")
    b.add_argument("--frames", type=int, default=100)
    b.add_argument("--mode", choices=("approx", "exact"), default="approx")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--outdir", default=None)
    b.set_defaults(func=cmd_bench)
    return p


def _add_input_args(parser) -> None:
    parser.add_argument("--input", required=True,
                        help="directory/glob of PGM frames, or a raw dump")
    parser.add_argument("--raw-size", default=None, metavar="WxH",
                        help="treat --input as headerless raw of this size")
    parser.add_argument("--depth", type=int, default=16, choices=(8, 16),
                        help="raw sample depth (default 16)")
    parser.add_argument("--endian", default="little",
                        choices=("little", "big"), help="raw byte order")


def _load_frames(args, limit: int | None = None
                 ) -> tuple[FrameSequence, list[str]]:
    """The input frames (the first ``limit`` of them, if given) and the
    file name each frame's outputs are written under."""
    if args.raw_size:
        w, h = _parse_size(args.raw_size)
        seq = frameio.read_raw_sequence(args.input, w, h, args.depth,
                                        args.endian, limit)
        return seq, [f"frame_{i:06d}.pgm" for i in range(seq.n_frames)]
    seq, paths = frameio.read_pgm_sequence(args.input, limit)
    return seq, [os.path.basename(p) for p in paths]


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as exc:
        raise UsageError(f"bad --size/--raw-size {text!r}, expected WxH") from exc


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    cfg = FitConfig(k_max=args.kmax, history_len=args.history,
                    rng_seed=args.seed)
    history, _ = _load_frames(args, limit=args.history)
    if history.n_frames < args.history:
        raise ValueError(f"need at least {args.history} frames for the "
                         f"history, input has {history.n_frames}")
    printer = _ProgressPrinter(history.width * history.height)
    grid = initialize_grid(history, cfg, progress=printer)
    save_grid(grid, args.out)

    hist = grid.component_histogram()
    print("per-pixel component counts:")
    for k, count in hist.items():
        print(f"  K={k}: {count} pixels")
    if grid.unconverged_pixels:
        print(f"warning: {grid.unconverged_pixels} pixel fits unconverged",
              file=sys.stderr)
    _write_manifest(os.path.dirname(os.path.abspath(args.out)), "fit", args,
                    {"model": args.out, "histogram": {str(k): v for k, v in hist.items()},
                     "unconverged_pixels": grid.unconverged_pixels,
                     **grid.fit_counts},
                    time.perf_counter() - t0)
    if args.strict and grid.unconverged_pixels:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_run(args) -> int:
    t0 = time.perf_counter()
    seq, names = _load_frames(args)
    seg = SegmentationConfig(p_bg=args.pbg, decision_threshold=args.threshold,
                             min_blob_area=args.min_blob,
                             connectivity=args.connectivity)
    adapt_cfg = AdaptationConfig(mode=args.mode)
    grid = load_grid(args.model, adapt_config=adapt_cfg, seg_config=seg)
    if (grid.width, grid.height) != (seq.width, seq.height):
        raise ValueError(
            f"model geometry {grid.width}x{grid.height} does not match "
            f"frames {seq.width}x{seq.height}")
    if adapt_cfg.mode == MODE_EXACT:
        grid.pool = SamplePool(grid.width * grid.height,
                               grid.fit_config.history_len)

    os.makedirs(args.outdir, exist_ok=True)
    post_dir = os.path.join(args.outdir, "posterior")
    if args.save_posterior:
        os.makedirs(post_dir, exist_ok=True)
    for i in range(seq.n_frames):
        mask = process_frame(grid, seq.frames[i], update=not args.freeze)
        write_mask(mask.labels, os.path.join(args.outdir, names[i]))
        if args.save_posterior:
            write_posterior(mask.posterior, os.path.join(post_dir, names[i]))
    out_model = args.out_model or os.path.join(args.outdir, "model.vimm")
    save_grid(grid, out_model)

    elapsed = time.perf_counter() - t0
    fps = seq.n_frames / elapsed if elapsed > 0 else float("inf")
    print(f"processed {seq.n_frames} frames at {fps:.2f} fps")
    _write_manifest(args.outdir, "run", args,
                    {"masks": args.outdir, "model": out_model,
                     "frames": seq.n_frames, "fps": fps}, elapsed)
    return EXIT_OK


def cmd_eval(args) -> int:
    pred_names = _pgm_names(args.pred)
    gt_names = set(_pgm_names(args.gt))
    missing = sorted(set(pred_names) - gt_names)
    if missing:
        raise ValueError("missing ground truth for: " + ", ".join(missing))
    if not pred_names:
        raise ValueError(f"no PGM masks found in {args.pred!r}")
    names = sorted(pred_names)
    if args.sample is not None and 0 < args.sample < len(names):
        idx = np.linspace(0, len(names) - 1, args.sample).round().astype(int)
        names = [names[i] for i in np.unique(idx)]

    per_frame = []
    total = ConfusionCounts()
    for name in names:
        pred, _ = read_pgm(os.path.join(args.pred, name))
        gt, _ = read_pgm(os.path.join(args.gt, name))
        counts = accumulate(pred, gt, ignore_value=args.ignore)
        total = total + counts
        per_frame.append((name, metrics(counts)))
    report = metrics(total)
    report["frames"] = len(names)

    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        frame_csv = os.path.splitext(args.out)[0] + "_frames.csv"
        with open(frame_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            header = ["frame", "precision", "recall", "f1", "specificity",
                      "fpr", "fnr", "pwc", "tp", "fp", "tn", "fn"]
            writer.writerow(header)
            for name, m in per_frame:
                writer.writerow([name] + [m[k] for k in header[1:]])
    return EXIT_OK


def cmd_synth_fit_demo(args) -> int:
    t0 = time.perf_counter()
    os.makedirs(args.outdir, exist_ok=True)
    specs = fitting_demo_specs()
    data = gen_mixture_samples(specs, args.seed)
    cfg = FitConfig(k_max=10, history_len=data.size, rng_seed=args.seed)
    result = fit(data, cfg)
    model = result.model

    _write_components_csv(os.path.join(args.outdir, "fit_demo_components.csv"),
                          [("fitted", model)])
    _write_density_csv(os.path.join(args.outdir, "fit_demo_density.csv"),
                       {"fitted": model}, data)
    print(f"recovered K={model.n_components} "
          f"(generators: {len(specs)}), means="
          f"{[round(m, 2) for m in sorted(model.means)]}")
    _write_manifest(args.outdir, "synth fit-demo", args,
                    {"k": model.n_components}, time.perf_counter() - t0)
    return EXIT_OK


def cmd_synth_update_demo(args) -> int:
    t0 = time.perf_counter()
    os.makedirs(args.outdir, exist_ok=True)
    initial_specs, novel = adaptation_demo_specs()
    data = gen_mixture_samples(initial_specs, args.seed)
    cfg = FitConfig(k_max=10, history_len=data.size, rng_seed=args.seed)
    model = fit(data, cfg).model

    adapt_cfg = AdaptationConfig(mode=args.mode)
    pool = HistoryPool(data, maxlen=data.size) \
        if adapt_cfg.mode == MODE_EXACT else None
    novel_samples = gen_mixture_samples(
        [GaussianSpec(novel.mean, novel.stddev, 50)], args.seed + 1)

    from .adapt import adapt as adapt_op
    stages = [("t0", model.copy())]
    for i, x in enumerate(novel_samples, start=1):
        model, _ = adapt_op(model, float(x), adapt_cfg, pool)
        if i == 25:
            stages.append(("t25", model.copy()))
    stages.append(("t50", model.copy()))

    _write_components_csv(
        os.path.join(args.outdir, "update_demo_components.csv"), stages)
    _write_density_csv(os.path.join(args.outdir, "update_demo_density.csv"),
                       dict(stages), np.concatenate([data, novel_samples]))
    ks = {name: m.n_components for name, m in stages}
    print(f"components per stage: {ks}")
    _write_manifest(args.outdir, "synth update-demo", args, ks,
                    time.perf_counter() - t0)
    return EXIT_OK


def cmd_synth_video(args) -> int:
    t0 = time.perf_counter()
    scenario = load_scenario(args.config)
    seq, gt = gen_video(scenario)
    frames_dir = os.path.join(args.outdir, "frames")
    gt_dir = os.path.join(args.outdir, "gt")
    os.makedirs(frames_dir, exist_ok=True)
    os.makedirs(gt_dir, exist_ok=True)
    quant = quantize_frames(seq)
    from .frameio import write_pgm
    for t in range(seq.n_frames):
        name = f"frame_{t:06d}.pgm"
        write_pgm(quant[t], os.path.join(frames_dir, name),
                  255 if scenario.levels <= 256 else 65535)
        write_mask(gt[t], os.path.join(gt_dir, name))
    print(f"wrote {seq.n_frames} frames to {frames_dir} (gt in {gt_dir})")
    _write_manifest(args.outdir, "synth video", args,
                    {"frames": seq.n_frames, "rng": RNG_ALGORITHM,
                     "config": os.path.abspath(args.config)},
                    time.perf_counter() - t0)
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = [_parse_size(s) for s in (args.size or ["320x240", "640x480"])]
    rows = []
    for width, height in sizes:
        elapsed, fps, us_per_px = _bench_one(width, height, args)
        rows.append({"size": f"{width}x{height}", "frames": args.frames,
                     "fps": fps, "us_per_pixel": us_per_px,
                     "elapsed_sec": elapsed})
        print(f"{width}x{height}: {fps:.2f} fps, "
              f"{us_per_px:.2f} us/pixel over {args.frames} frames")
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        _write_manifest(args.outdir, "bench", args, {"results": rows},
                        sum(r["elapsed_sec"] for r in rows))
    return EXIT_OK


def _bench_one(width, height, args):
    n_pixels = width * height
    model = MixtureModel([0.7, 0.3], [16.0, 50.0], [2.25, 4.0], 100)
    adapt_cfg = AdaptationConfig(mode=args.mode)
    grid = PixelGrid(width=width, height=height,
                     state=MixtureState.from_models([model] * n_pixels),
                     fit_config=FitConfig(), adapt_config=adapt_cfg,
                     seg_config=SegmentationConfig())
    if adapt_cfg.mode == MODE_EXACT:
        rng = np.random.default_rng(args.seed)
        grid.pool = SamplePool.from_history(
            rng.normal(16.0, 1.5, (n_pixels, 100)).T, maxlen=100)
    rng = np.random.default_rng(args.seed)
    frames = rng.normal(16.0, 1.5, (args.frames, height, width))
    t0 = time.perf_counter()
    for i in range(args.frames):
        process_frame(grid, frames[i])
    elapsed = time.perf_counter() - t0
    fps = args.frames / elapsed if elapsed > 0 else float("inf")
    us_per_px = elapsed / (args.frames * n_pixels) * 1e6
    return elapsed, fps, us_per_px


class _ProgressPrinter:
    """Decile progress lines for long grid fits."""

    def __init__(self, total: int):
        self.total = total
        self.done = 0
        self.next_mark = max(1, total // 10)

    def __call__(self, n: int) -> None:
        self.done += n
        if self.done >= self.next_mark:
            print(f"fitted {self.done}/{self.total} pixels", file=sys.stderr)
            while self.next_mark <= self.done:
                self.next_mark += max(1, self.total // 10)


def _pgm_names(directory) -> list[str]:
    if not os.path.isdir(directory):
        raise ValueError(f"not a directory: {directory!r}")
    return sorted(n for n in os.listdir(directory) if n.endswith(".pgm"))


def _write_components_csv(path, stages) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "component", "weight", "mean", "variance"])
        for name, model in stages:
            for k, (w, mu, var) in enumerate(
                    zip(model.weights, model.means, model.variances)):
                writer.writerow([name, k, f"{w:.17g}", f"{mu:.17g}",
                                 f"{var:.17g}"])


def _write_density_csv(path, models: dict, data) -> None:
    data = np.asarray(data, dtype=np.float64)
    lo, hi = data.min() - 10.0, data.max() + 10.0
    xs = np.linspace(lo, hi, 1000)
    columns = {name: mixture_density(m, xs) for name, m in models.items()}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + [f"density_{name}" for name in columns])
        for i, x in enumerate(xs):
            writer.writerow([f"{x:.10g}"] +
                            [f"{columns[name][i]:.10g}" for name in columns])


def _write_manifest(outdir, command, args, outputs, elapsed) -> None:
    os.makedirs(outdir or ".", exist_ok=True)
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "args": {k: v for k, v in sorted(vars(args).items())
                 if k != "func" and _jsonable(v)},
        "outputs": outputs,
        "elapsed_sec": elapsed,
        "rng_algorithm": RNG_ALGORITHM,
        "version": __version__,
    }
    path = os.path.join(outdir or ".", "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(v) -> bool:
    return isinstance(v, (str, int, float, bool, type(None), list, dict))


if __name__ == "__main__":
    sys.exit(main())
