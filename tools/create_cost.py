"""Time creating a new small file against rewriting an existing one.

    python3 tools/create_cost.py DIR [--files N] [--size BYTES]

In a fresh directory made inside DIR, writes N files (default 400) of BYTES
bytes (default 269, a 16x16 mask PGM) one by one, each opened with
``open(path, "wb")``, written and closed: first as new files, then again
over the existing ones.  Prints, for both passes, the median and quartiles
of the per-file wall time and the kernel (system) CPU time per file, then
the ratio of the create and rewrite medians.  The last line of stdout is the
same as one JSON object.  Everything made is removed before it exits.

``thermobg run`` creates one new file per mask (and per posterior), so on a
file system where creating a file costs far more than rewriting one, that
cost is what its child writer process takes off the frame loop.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time


def timed_pass(paths, data) -> dict:
    """Per-file wall times (µs) of writing ``data`` to every path in turn,
    with the pass's system CPU time per file."""
    wall = []
    sys_before = _system_s()
    for path in paths:
        t = time.perf_counter()
        with open(path, "wb") as fh:
            fh.write(data)
        wall.append(1e6 * (time.perf_counter() - t))
    sys_us = 1e6 * (_system_s() - sys_before) / len(paths)
    q1, median, q3 = statistics.quantiles(wall, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3,
            "system_us_per_file": sys_us}


def _system_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir", help="directory on the file system to measure")
    ap.add_argument("--files", type=int, default=400)
    ap.add_argument("--size", type=int, default=269)
    args = ap.parse_args(argv)
    if not os.path.isdir(args.dir):
        print(f"error: not a directory: {args.dir!r}", file=sys.stderr)
        return 2
    if args.files < 2 or args.size < 0:
        print("error: need --files >= 2 and --size >= 0", file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix="create_cost-", dir=args.dir)
    try:
        paths = [os.path.join(work, f"f{i:06d}.pgm") for i in range(args.files)]
        data = bytes(args.size)
        create = timed_pass(paths, data)
        rewrite = timed_pass(paths, data)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"dir": os.path.abspath(args.dir), "files": args.files,
              "bytes": args.size, "create": create, "rewrite": rewrite,
              "create_over_rewrite": create["median_us"] / rewrite["median_us"]}
    for name in ("create", "rewrite"):
        r = result[name]
        print(f"{name:8s} median {r['median_us']:8.1f} us "
              f"[{r['q1_us']:.1f}, {r['q3_us']:.1f}], "
              f"system CPU {r['system_us_per_file']:.1f} us per file")
    print(f"create / rewrite: {result['create_over_rewrite']:.1f}x")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
