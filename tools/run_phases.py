"""Split each call of perfbench's chain into the phases it spends its time in.

    python3 tools/run_phases.py SRC WORKLOAD [--seed S]

SRC is a directory holding the ``thermobg`` package, such as the ``src``
directory of a checkout; WORKLOAD names a scene of perfbench/scenes.py.  The
scene's video is rendered with ``--seed`` and written as perfbench writes it.
Then one fresh process on one thread, importing thermobg from SRC, runs the
chain perfbench times through ``thermobg.cli.main``: ``fit``, then each
``run`` call, each continuing from the model the one before it saved.  For
every call it prints the call's seconds and the seconds spent in

- decode: reading and decoding the input frames (read_pgm_sequence);
- start: starting the writer process (frameio.WriterProcess);
- process_frame: the summed process_frame calls;
- write: encoding each mask and sending it to the writer process (cli's
  write_mask), with the number of sends that took over 1 ms and their
  seconds: a send waits when the pipe to the writer is full;
- close: the writer's close, which waits until the files sent are written;
- load and save: reading and writing the model file;
- rest: the call less all of the above (the fit itself for ``fit``;
  parsing and the manifest for ``run``),

and the minor page faults the process took during the call (getrusage).
So a change of perfbench's ``stream_fps`` can be put down to the frame loop
or to the writer.  Exits 0 when every call succeeded, 1 when one failed, and
2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from checks import P_BG, THRESHOLD  # noqa: E402
from scenes import MIN_BLOB, SCENES, frame_name, render, write_pgm  # noqa: E402

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PHASES = ("decode", "start", "process_frame", "write", "close", "load",
          "save")
STALL_S = 1e-3  # a send this long waited on the pipe


def chain(scene, seed, work) -> list:
    """Write the scene's video under ``work`` as perfbench lays it out and
    return the (name, argv) of its fit and run calls."""
    frames, _ = render(scene, seed)
    subs = ["history"] + [f"stream{j}" for j in range(scene.runs)]
    for sub in subs:
        os.makedirs(os.path.join(work, "video", sub))
    for t in range(frames.shape[0]):
        sub = ("history" if t < scene.history
               else f"stream{(t - scene.history) // scene.segment}")
        write_pgm(frames[t], os.path.join(work, "video", sub, frame_name(t)))
    models = [os.path.join(work, f"model{j}.vimm") for j in range(scene.runs + 1)]
    seg = ["--pbg", str(P_BG), "--threshold", str(THRESHOLD), "--min-blob",
           str(MIN_BLOB), "--connectivity", "8", "--mode", scene.mode,
           "--workers", "1"]
    calls = [("fit", ["fit", "--input", os.path.join(work, "video", "*", "*.pgm"),
                      "--history", str(scene.history), "--kmax", str(scene.kmax),
                      "--seed", "0", "--out", models[0], "--workers", "1"])]
    for j in range(scene.runs):
        calls.append((f"run{j}", ["run", "--input",
                                  os.path.join(work, "video", f"stream{j}"),
                                  "--model", models[j], "--outdir",
                                  os.path.join(work, "masks"), "--out-model",
                                  models[j + 1]] + seg))
    return calls


def child(spec_path) -> int:
    """Run the calls of the spec through thermobg.cli.main and print each
    call's phases."""
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import thermobg.cli as cli
    import thermobg.frameio as frameio
    if not cli.__file__.startswith(spec["src"] + os.sep):
        print(f"imported thermobg from {cli.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 2
    seconds = dict.fromkeys(PHASES, 0.0)
    sends = []

    def timed(owner, attr, phase):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if phase is None:
                    sends.append(dt)
                else:
                    seconds[phase] += dt
        setattr(owner, attr, wrapper)

    timed(frameio, "read_pgm_sequence", "decode")
    timed(cli, "process_frame", "process_frame")
    timed(frameio.WriterProcess, "__init__", "start")
    timed(cli, "write_mask", "write")
    timed(frameio.WriterProcess, "send", None)
    timed(frameio.WriterProcess, "close", "close")
    timed(cli, "load_grid", "load")
    timed(cli, "save_grid", "save")

    frames = [0]
    process_frame = cli.process_frame

    def counted(*args, **kwargs):
        frames[0] += 1
        return process_frame(*args, **kwargs)
    cli.process_frame = counted

    failed = False
    for name, argv in spec["calls"]:
        for phase in PHASES:
            seconds[phase] = 0.0
        sends.clear()
        frames[0] = 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        rc = cli.main(argv)
        total = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        stalls = [s for s in sends if s > STALL_S]
        rest = total - sum(seconds.values())
        parts = [f"{p} {seconds[p]:.4f} s" for p in PHASES]
        parts[PHASES.index("write")] += (
            f" ({len(sends)} sends, {len(stalls)} over "
            f"{STALL_S * 1e3:g} ms: {sum(stalls):.4f} s)")
        rate = f", {frames[0] / total:.0f} frames/s" if frames[0] else ""
        print(f"{name}: exit {rc}, {total:.4f} s, {frames[0]} frames{rate}; "
              + ", ".join(parts) + f", rest {rest:.4f} s; {faults} minor "
              "faults", flush=True)
        failed = failed or rc != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--child"]:
        return child(argv[1])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src")
    ap.add_argument("workload", choices=sorted(SCENES))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "thermobg", "cli.py")):
        ap.error(f"no thermobg package under {args.src}")
    scene = SCENES[args.workload]
    print(f"{scene.name} seed {args.seed}: {scene.stream} frames in "
          f"{scene.runs} run call(s), thermobg from {src}", flush=True)
    with tempfile.TemporaryDirectory(prefix="run_phases-") as work:
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"src": src, "calls": chain(scene, args.seed, work)},
                      fh)
        env = dict(os.environ, PYTHONPATH=src)
        env.update({k: "1" for k in THREAD_ENV})
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--child", spec_path], cwd=work, env=env,
                              check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
