"""One round of a workload in a fresh process: import thermobg, then run
``thermobg fit``, ``thermobg run`` and ``thermobg eval`` through
``thermobg.cli.main``, then re-run a few frames with ``run --freeze`` as a
check.  run.py writes the round's spec and reads the result back:

    python3 perfbench/pipeline.py SPEC.json

Nothing is imported before thermobg, so the import time is what a user pays
in a fresh process.  Every stream frame is timed by a timestamp around the
``process_frame`` that ``cli`` calls.  A traced round also wraps each
module's public functions, at the names their callers look them up by, and
reports inclusive and self times and counts per layer.
"""

import importlib
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    """Spans around wrapped callables.  A span's self time is its duration
    minus the time of the spans it encloses."""

    def __init__(self):
        self.total = defaultdict(float)
        self.inner = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.stack = []
        self.undo = []

    def call(self, name, fn, *args, **kwargs):
        self.stack.append(0.0)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            self.inner[name] += self.stack.pop()
            self.total[name] += dt
            self.calls[name] += 1
            if self.stack:
                self.stack[-1] += dt

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a spanned call; ``after(args, result)``
        records counts once the span has closed."""
        fn = getattr(owner, attr)

        def spanned(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, spanned)
        self.undo.append((owner, attr, fn))

    def remove(self):
        for owner, attr, fn in reversed(self.undo):
            setattr(owner, attr, fn)
        self.undo.clear()

    def self_time(self, name):
        return self.total[name] - self.inner[name]


def install(tr, cli):
    """Wrap the layers.  engine binds adapt, fit and blob_filter at import;
    cli binds the engine, frameio and metrics functions it calls; fit and
    adapt call their helpers through their own module globals."""
    # The package re-exports the functions fit and adapt under the names of
    # their modules, so the modules are fetched by their dotted names.
    adapt_mod = importlib.import_module("thermobg.adapt")
    engine = importlib.import_module("thermobg.engine")
    fit_mod = importlib.import_module("thermobg.fit")
    frameio = importlib.import_module("thermobg.frameio")

    cnt = tr.count

    def fitted(args, result):
        cnt["k_final"] += result.model.n_components
        cnt["unconverged"] += int(not result.converged)

    def kmeans(args, result):
        cnt["k_init"] += result.n_clusters

    def adapted(args, result):
        cnt["matched"] += int(result[1])

    def eps_approx(args, result):
        model, c, _, cfg = args
        top = max(cfg.epsilon_min,
                  math.ceil(cfg.epsilon_max_sigmas * math.sqrt(model.variances[c])))
        cnt["eps_points"] += len(range(cfg.epsilon_min, top + 1, cfg.epsilon_step))

    def eps_exact(args, result):
        pool, _, cfg = args
        values = pool.values
        top = max(cfg.epsilon_min, math.ceil(max(values) - min(values)))
        cnt["eps_points"] += len(range(cfg.epsilon_min, top + 1, cfg.epsilon_step))

    def filtered(args, result):
        cnt["fg_raw"] += int(args[0].labels.sum())
        cnt["fg_kept"] += int(result.labels.sum())

    def saved(args, result):
        cnt["model_bytes"] += os.path.getsize(args[1])

    tr.wrap(fit_mod, "digamma", "fit.digamma")
    tr.wrap(fit_mod, "e_step", "fit.e_step")
    tr.wrap(fit_mod, "m_step", "fit.m_step")
    tr.wrap(fit_mod, "elbo", "fit.elbo")
    tr.wrap(fit_mod, "kmeanspp_init", "fit.kmeanspp_init", kmeans)
    tr.wrap(fit_mod.VariationalPosterior, "drop", "fit.drop")
    tr.wrap(engine, "fit", "engine.fit", fitted)
    tr.wrap(adapt_mod, "match_component", "adapt.match")
    tr.wrap(adapt_mod, "epsilon_star_approx", "adapt.eps", eps_approx)
    tr.wrap(adapt_mod, "epsilon_star_exact", "adapt.eps", eps_exact)
    tr.wrap(adapt_mod, "decide", "adapt.decide")
    tr.wrap(adapt_mod, "update_matched", "adapt.update")
    tr.wrap(adapt_mod, "spawn_component", "adapt.spawn")
    tr.wrap(engine, "adapt", "engine.adapt", adapted)
    tr.wrap(engine, "blob_filter", "engine.blob_filter", filtered)
    tr.wrap(frameio, "read_pgm", "frameio.read_pgm")
    tr.wrap(frameio, "read_pgm_sequence", "frameio.read_pgm_sequence")
    tr.wrap(cli, "read_pgm", "cli.read_pgm")
    tr.wrap(cli, "initialize_grid", "engine.initialize_grid")
    tr.wrap(cli, "process_frame", "engine.process_frame")
    tr.wrap(cli, "save_grid", "engine.save_grid", saved)
    tr.wrap(cli, "load_grid", "engine.load_grid")
    tr.wrap(cli, "write_mask", "cli.write_mask")
    tr.wrap(cli, "accumulate", "cli.accumulate")
    tr.wrap(cli, "metrics", "cli.metrics")


def layers(tr):
    """Per-layer metrics of one traced round (adapt.k_*_end and
    trace.overhead_s are added by run.py)."""
    t, n, c = tr.total, tr.calls, tr.count
    pixels = max(n["engine.fit"], 1)
    calls = n["engine.adapt"]
    return {
        "core.digamma_s": t["fit.digamma"],
        "core.digamma_calls": n["fit.digamma"],
        "fit.e_step_s": t["fit.e_step"],
        "fit.m_step_s": t["fit.m_step"],
        "fit.elbo_s": t["fit.elbo"],
        "fit.kmeanspp_s": t["fit.kmeanspp_init"],
        "fit.pixel_s": t["engine.fit"],
        "fit.em_iters": n["fit.e_step"],
        "fit.death_trials": n["fit.drop"],
        "fit.k_init_mean": c["k_init"] / pixels,
        "fit.k_final_mean": c["k_final"] / pixels,
        "fit.unconverged": c["unconverged"],
        "adapt.adapt_s": t["engine.adapt"],
        "adapt.match_s": t["adapt.match"],
        "adapt.eps_s": t["adapt.eps"],
        "adapt.eps_grid_points": c["eps_points"],
        "adapt.decide_s": t["adapt.decide"],
        "adapt.update_s": t["adapt.update"],
        "adapt.spawn_s": t["adapt.spawn"],
        "adapt.calls": calls,
        "adapt.matched": c["matched"],
        "adapt.spawned": n["adapt.spawn"],
        "adapt.match_ratio": c["matched"] / calls if calls else 0.0,
        "engine.classify_s": tr.self_time("engine.process_frame"),
        "engine.init_self_s": tr.self_time("engine.initialize_grid"),
        "engine.save_s": t["engine.save_grid"],
        "engine.load_s": t["engine.load_grid"],
        "engine.model_bytes": c["model_bytes"],
        "frameio.decode_s": t["frameio.read_pgm_sequence"] + t["cli.read_pgm"],
        "frameio.frames_decoded": n["frameio.read_pgm"] + n["cli.read_pgm"],
        "frameio.write_s": t["cli.write_mask"],
        "frameio.masks_written": n["cli.write_mask"],
        "segment.blob_filter_s": t["engine.blob_filter"],
        "segment.fg_raw_px": c["fg_raw"],
        "segment.fg_kept_px": c["fg_kept"],
        "metrics.eval_s": t["cli.accumulate"] + t["cli.metrics"],
        "cli.self_s": tr.self_time("cli.main"),
    }


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    t0 = clock()
    import thermobg.cli as cli
    out = {"setup_s": clock() - t0, "package": os.path.abspath(cli.__file__)}
    if spec["setup_only"]:
        return out

    from thermobg.core import VARIANCE_FLOOR
    out["variance_floor"] = VARIANCE_FLOOR

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        install(tracer, cli)

    frame_s = []
    process_frame = cli.process_frame

    def timed_frame(*args, **kwargs):
        t = clock()
        mask = process_frame(*args, **kwargs)
        frame_s.append(clock() - t)
        return mask

    cli.process_frame = timed_frame
    steps = {}
    for name, argv in spec["steps"]:
        t = clock()
        rc = (tracer.call("cli.main", cli.main, argv) if tracer is not None
              else cli.main(argv))
        steps[name] = {"s": clock() - t, "rc": rc}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["steps"] = steps
    out["frame_s"] = frame_s
    cli.process_frame = process_frame
    if tracer is not None:
        out["layers"] = layers(tracer)
        tracer.remove()
    cli.main(spec["freeze"])  # checked through the files it writes
    return out


if __name__ == "__main__":
    spec_file = sys.argv[1]
    result = main(spec_file)
    with open(spec_file + ".out", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
