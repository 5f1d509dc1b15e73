"""Byte-compare what two thermobg source trees write for the benchmark's
scenes.

    python3 tools/compare_outputs.py SRC_A SRC_B SEED [SEED ...]

SRC_A and SRC_B are directories holding the ``thermobg`` package, such as the
``src`` directories of two checkouts.  For every seed and every scene of
perfbench/scenes.py, the scene's video is rendered once.  Each tree then runs
the chain perfbench runs through ``thermobg.cli``: ``fit``, then one
``run --save-posterior`` per stream segment, each continuing from the model
the one before it saved.  For every seed each tree also runs
``synth update-demo`` in both adaptation modes, the one command whose
exact mode gets non-integer samples, and ``synth fit-demo``; the two demos
are the only commands that fit one pixel through ``fit``.  Every command
runs in a fresh single-thread process.  Every mask, posterior, VIMM1 model
and CSV file of the two trees is then compared byte for byte.

Exits 0 when all files are identical, 1 when any file differs or exists for
one tree only, and 2 on a usage error or when a command fails.
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from checks import P_BG, THRESHOLD  # noqa: E402
from scenes import MIN_BLOB, SCENES, frame_name, render, write_pgm  # noqa: E402

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMPARED = (".pgm", ".vimm", ".csv")


def write_video(scene, seed, video) -> None:
    """The history frames, then one directory per run call, as perfbench
    lays the video out."""
    frames, _ = render(scene, seed)
    for t in range(frames.shape[0]):
        sub = ("history" if t < scene.history
               else f"stream{(t - scene.history) // scene.segment}")
        os.makedirs(os.path.join(video, sub), exist_ok=True)
        write_pgm(frames[t], os.path.join(video, sub, frame_name(t)))


def chain(scene, video, out):
    """The argument lists of the fit and run calls, in order."""
    fitted = os.path.join(out, "fitted.vimm")
    models = ([fitted]
              + [os.path.join(out, f"run{j}.vimm") for j in range(scene.runs - 1)]
              + [os.path.join(out, "final.vimm")])
    calls = [["fit", "--input", os.path.join(video, "*", "*.pgm"),
              "--history", str(scene.history), "--kmax", str(scene.kmax),
              "--seed", "0", "--out", fitted]]
    for j in range(scene.runs):
        calls.append(["run", "--input", os.path.join(video, f"stream{j}"),
                      "--model", models[j], "--out-model", models[j + 1],
                      "--outdir", os.path.join(out, "masks"),
                      "--pbg", str(P_BG), "--threshold", str(THRESHOLD),
                      "--min-blob", str(MIN_BLOB), "--connectivity", "8",
                      "--mode", scene.mode, "--save-posterior"])
    return calls


def demos(seed, out):
    """The argument lists of the update-demo calls, one per mode, and of
    the fit-demo call."""
    return [["synth", "update-demo", "--seed", str(seed), "--mode", mode,
             "--outdir", os.path.join(out, f"update-demo-{mode}")]
            for mode in ("approx", "exact")] + [
        ["synth", "fit-demo", "--seed", str(seed),
         "--outdir", os.path.join(out, "fit-demo")]]


def cases(seed, work):
    """(name, the calls given an output directory) of every scene, its
    video rendered under ``work``, then of the synth demos."""
    for scene in SCENES.values():
        video = os.path.join(work, f"{scene.name}-{seed}", "video")
        write_video(scene, seed, video)
        yield scene.name, functools.partial(chain, scene, video)
    yield "demos", functools.partial(demos, seed)


def run_tree(src, calls) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({k: "1" for k in THREAD_ENV})
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "thermobg.cli", *argv],
                              env=env, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            print(f"{src}: thermobg {argv[0]} exited {proc.returncode}",
                  file=sys.stderr)
            raise SystemExit(2)


def outputs(out) -> set[str]:
    found = set()
    for base, _, names in os.walk(out):
        found.update(os.path.relpath(os.path.join(base, n), out)
                     for n in names if n.endswith(COMPARED))
    return found


def compare(out_a, out_b) -> tuple[int, list[str]]:
    """The number of files compared and the ones that differ."""
    names = outputs(out_a) | outputs(out_b)
    differ = []
    for name in sorted(names):
        paths = [os.path.join(out_a, name), os.path.join(out_b, name)]
        if not all(os.path.isfile(p) for p in paths):
            differ.append(name)
            continue
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            if a.read() != b.read():
                differ.append(name)
    return len(names), differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a")
    ap.add_argument("src_b")
    ap.add_argument("seeds", type=int, nargs="+")
    args = ap.parse_args(argv)
    for src in (args.src_a, args.src_b):
        if not os.path.isfile(os.path.join(src, "thermobg", "cli.py")):
            ap.error(f"no thermobg package under {src}")

    total, differ = 0, []
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as work:
        for seed in args.seeds:
            for case, calls in cases(seed, work):
                here = os.path.join(work, f"{case}-{seed}")
                outs = [os.path.join(here, side) for side in ("a", "b")]
                for src, out in zip((args.src_a, args.src_b), outs):
                    os.makedirs(out)
                    run_tree(src, calls(out))
                n, bad = compare(*outs)
                print(f"{case} seed {seed}: {n} files, "
                      f"{len(bad)} differ", flush=True)
                total += n
                differ += [f"{case} seed {seed}: {name}" for name in bad]
    for line in differ[:20]:
        print(f"differs: {line}")
    print(f"{total} files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
