"""Benchmark of the thermobg pipeline: a seeded synthetic video is fitted,
streamed and scored by ``thermobg fit``, ``thermobg run`` and
``thermobg eval`` in a fresh process per round, and every round's outputs are
checked against the benchmark's own computations.

    python3 perfbench/run.py --workload thermal16-fit --seed 1 \
        --seconds 56 --trace 0

Run from the repository root.  A run repeats rounds until the next one would
overrun ``--seconds`` (at least one round; with ``--trace 1``, pairs of an
untraced and a traced round).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
from scenes import MIN_BLOB, SCENES, frame_name, render, write_pgm

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUPS = 5             # fresh-process imports per run, at least
PROBE_S = 1.0          # time to allow for one import-only process
ROUND_TIMEOUT_S = 170  # one round must end well inside a run's limit
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCENES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "thermobg", "cli.py")):
        print(f"error: no thermobg source under {SRC}", file=sys.stderr)
        return 2
    scene = SCENES[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{scene.name}-", dir=WORK)
    try:
        return _run(scene, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(scene, args, work) -> int:
    frames, gt = render(scene, args.seed)
    paths = _write_inputs(scene, frames, gt, work)

    rounds = []
    longest = 0.0
    reference = None
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t_round = time.monotonic()
        out = _round(scene, paths, work, len(rounds), traced)
        check = checks.check_round(scene, frames, gt, out, reference)
        reference = reference or check
        steps = out["result"]["steps"]
        run_s = sum(steps[f"run{j}"]["s"] for j in range(scene.runs))
        print(f"round {len(rounds)}{' traced' if traced else ''}: "
              f"setup {out['result']['setup_s']:.3f} s, fit {steps['fit']['s']:.3f} s, "
              f"run {run_s:.3f} s, {check.failed} failed",
              file=sys.stderr)
        rounds.append((out, check))
        shutil.rmtree(out["dir"], ignore_errors=True)
        longest = max(longest, time.monotonic() - t_round)
        if args.trace and len(rounds) % 2:
            continue
        probes = 0 if args.trace else max(0, SETUPS - len(rounds) - 1)
        if (time.monotonic() - start + longest * (2 if args.trace else 1)
                + probes * PROBE_S > args.seconds):
            break

    setups = [out["result"]["setup_s"] for out, _ in rounds]
    while not args.trace and len(setups) < SETUPS:
        setups.append(_child(work, {"setup_only": True})["setup_s"])

    problems = [p for _, c in rounds for p in c.problems]
    quality = _f1_pwc_repeat(rounds, problems)
    if args.trace:
        values, kind = _layer_metrics(rounds), "per_layer"
    else:
        values, kind = {**_e2e_metrics(rounds, scene, setups), **quality}, "end_to_end"
    declared = _declared(kind)
    if set(values) != {name for name, _ in declared}:
        raise SystemExit(f"measured metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(values) ^ {n for n, _ in declared})}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared}
    for p in sorted(set(problems)):
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c.attempted for _, c in rounds),
        "failed": sum(c.failed for _, c in rounds),
        "metrics": metrics,
    }))
    return 0


def _write_inputs(scene, frames, gt, work) -> dict:
    """The video as the user has it: history frames, then the stream in one
    directory per run call (stream0, stream1, ...); the ground truth of the
    streamed frames; copies of the frames re-run frozen."""
    paths = {k: os.path.join(work, k) for k in ("gt", "freeze_in")}
    subs = ["history"] + [f"stream{j}" for j in range(scene.runs)]
    paths.update({k: os.path.join(work, "video", k) for k in subs})
    for d in paths.values():
        os.makedirs(d)
    for t in range(frames.shape[0]):
        sub = ("history" if t < scene.history
               else f"stream{(t - scene.history) // scene.segment}")
        write_pgm(frames[t], os.path.join(paths[sub], frame_name(t)))
    for s in range(scene.stream):
        write_pgm(gt[s], os.path.join(paths["gt"], frame_name(scene.history + s)))
    for s in scene.freeze:
        name = frame_name(scene.history + s)
        shutil.copy(os.path.join(paths[f"stream{s // scene.segment}"], name),
                    paths["freeze_in"])
    # fit takes the whole video and uses its first --history frames.
    paths["video"] = os.path.join(work, "video", "*", "*.pgm")
    return paths


def _round(scene, paths, work, index, traced) -> dict:
    d = os.path.join(work, f"round{index}")
    out = {
        "dir": d,
        "fitted": os.path.join(d, "fitted.vimm"),
        "final": os.path.join(d, "final.vimm"),
        "masks": os.path.join(d, "masks"),
        "eval_json": os.path.join(d, "eval.json"),
        "eval_csv": os.path.join(d, "eval_frames.csv"),
        "freeze_out": os.path.join(d, "freeze"),
    }
    seg = ["--pbg", str(checks.P_BG), "--threshold", str(checks.THRESHOLD),
           "--min-blob", str(MIN_BLOB), "--connectivity", "8",
           "--mode", scene.mode, "--workers", "1"]
    # Each run call continues from the model the one before it saved.
    models = ([out["fitted"]]
              + [os.path.join(d, f"run{j}.vimm") for j in range(scene.runs - 1)]
              + [out["final"]])
    runs = [[f"run{j}", ["run", "--input", paths[f"stream{j}"],
                         "--model", models[j], "--outdir", out["masks"],
                         "--out-model", models[j + 1]] + seg]
            for j in range(scene.runs)]
    spec = {
        "setup_only": False,
        "trace": traced,
        "steps": [
            ["fit", ["fit", "--input", paths["video"], "--history",
                     str(scene.history), "--kmax", str(scene.kmax),
                     "--seed", "0", "--out", out["fitted"], "--workers", "1"]],
            *runs,
            ["eval", ["eval", "--pred", out["masks"], "--gt", paths["gt"],
                      "--out", out["eval_json"]]],
        ],
        "freeze": ["run", "--input", paths["freeze_in"], "--model", out["final"],
                   "--outdir", out["freeze_out"], "--freeze", "--save-posterior",
                   "--out-model", os.path.join(out["freeze_out"], "model.vimm")] + seg,
    }
    os.makedirs(d)
    out["result"] = _child(work, spec)
    out["traced"] = traced
    return out


def _child(work, spec) -> dict:
    """Run pipeline.py in a fresh process on one thread and return its
    result; a child that ends without one stops the benchmark."""
    fd, spec_path = tempfile.mkstemp(suffix=".json", dir=work)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = {k: v for k, v in os.environ.items() if k != "THERMOBG_WORKERS"}
    env["PYTHONPATH"] = SRC
    env.update({k: "1" for k in THREAD_ENV})
    log_path = spec_path + ".log"
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "pipeline.py"), spec_path],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            timeout=ROUND_TIMEOUT_S, check=False)
    try:
        with open(spec_path + ".out", encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise SystemExit(f"workload process exited {proc.returncode} "
                         "without a result")
    if not result["package"].startswith(SRC + os.sep):
        raise SystemExit(f"imported thermobg from {result['package']}, "
                         f"not from {SRC}")
    return result


def _f1_pwc_repeat(rounds, problems) -> dict:
    """f1 and pwc of the run; every round of one seed must give the same."""
    reports = []
    for _, check in rounds:
        tp, fp, tn, fn = (int(v) for v in check.counts.sum(axis=0))
        reports.append(checks.f1_pwc(tp, fp, tn, fn))
    if len(set(reports)) != 1:
        problems.append(f"f1/pwc differ between rounds: {sorted(set(reports))}")
    f1, pwc = reports[0]
    return {"f1": f1, "pwc": pwc}


def _e2e_metrics(rounds, scene, setups) -> dict:
    """Medians over the run.  Rounds repeat the same work frame by frame, so
    each frame's time is its median over the rounds before the percentiles
    are taken: a slow spell of the machine that hits one round in three
    drops out.  stream_fps is the median over every run call of the run."""
    res = [out["result"] for out, _ in rounds]
    med = statistics.median
    frame_ms = 1e3 * np.median([r["frame_s"] for r in res], axis=0)
    return {
        "setup_s": med(setups),
        "fit_s": med(r["steps"]["fit"]["s"] for r in res),
        "stream_fps": med(scene.segment / r["steps"][f"run{j}"]["s"]
                          for r in res for j in range(scene.runs)),
        "frame_ms_p50": float(np.median(frame_ms)),
        "frame_ms_tail": float(np.percentile(frame_ms, scene.tail_pct)),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in res),
    }


def _layer_metrics(rounds) -> dict:
    """Per-layer metrics: the median over traced rounds (counts repeat
    exactly), the final model's K, and the traced rounds' extra wall time."""
    traced = [out for out, _ in rounds if out["traced"]]
    plain = [out for out, _ in rounds if not out["traced"]]
    names = traced[0]["result"]["layers"].keys()
    values = {n: statistics.median(o["result"]["layers"][n] for o in traced)
              for n in names}
    ks = next(c.final_k for o, c in rounds if o["traced"])
    values["adapt.k_mean_end"] = float(np.mean(ks))
    values["adapt.k_max_end"] = max(ks)

    def wall(o):
        return sum(step["s"] for step in o["result"]["steps"].values())

    values["trace.overhead_s"] = statistics.median(
        wall(t) - wall(p) for t, p in zip(traced, plain))
    return values


def _declared(kind: str) -> list:
    """Names and units of the metrics BENCHMARK.json declares, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


if __name__ == "__main__":
    sys.exit(main())
