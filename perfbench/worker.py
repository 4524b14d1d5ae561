"""Child process of the benchmark: imports hskdv and runs the passes.

Invoked by run.py, once per measured run and a few times with
--setup-only to sample the set-up time. Writes one JSON result file;
prints nothing on standard output.

A pass runs every item of a workload once, each through ``cli.main``
on its generated argv. Only the ``cli.main`` calls are timed; reading
and checking the outputs happens between them.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 3
TIME_CAP_S = 140.0    # stop starting passes well before the 180 s limit
MODULES = ("phases", "regions", "atlas_svg", "spectral", "picard", "ibps",
           "fre", "sharpness", "cli")


def import_hskdv():
    """The hskdv modules from this checkout's src/, or None if absent."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        mods = {m: importlib.import_module("hskdv." + m) for m in MODULES}
    except ImportError as exc:
        print("cannot import hskdv from %s: %s" % (src, exc), file=sys.stderr)
        return None
    where = os.path.realpath(mods["cli"].__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        print("hskdv imported from %s, not from %s" % (where, src),
              file=sys.stderr)
        return None
    return mods


def run_item(item, main, workdir, reference):
    """Run one item; returns its record and the bytes it wrote."""
    outdir = os.path.join(workdir, item.name)
    t0 = time.perf_counter()
    try:
        code = main(item.argv + ["--out", outdir])
    except Exception:
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - t0
    _, problem = checks.check(item, code, outdir, reference)
    nbytes = 0
    if os.path.isdir(outdir):
        nbytes = sum(os.path.getsize(os.path.join(outdir, n))
                     for n in os.listdir(outdir))
        shutil.rmtree(outdir)
    if problem:
        print("item %s failed: %s" % (item.name, problem), file=sys.stderr)
    return {"name": item.name, "seconds": seconds, "ok": problem is None,
            "problem": problem}, nbytes


def run_pass(items, main_for, workdir, reference):
    """Run every item once; main_for(item) gives the cli.main to call."""
    records, nbytes = [], 0
    for item in items:
        rec, n = run_item(item, main_for(item), workdir, reference)
        records.append(rec)
        nbytes += n
    return {"wall_s": sum(r["seconds"] for r in records),
            "items": records}, nbytes


def measure(args, items, hs, workdir, reference, ready):
    """Untraced passes until the next one would overrun --seconds."""
    deadline = ready + args.seconds
    passes, lengths = [], []
    while True:
        start = time.monotonic()
        rec, _ = run_pass(items, lambda _: hs["cli"].main, workdir,
                          reference)
        passes.append(rec)
        lengths.append(time.monotonic() - start)
        if len(passes) == 1:
            # peak after one pass, as one CLI process would see it: ibps
            # keeps the kernels of up to nine grids it has seen, so the
            # peak at exit would grow with the number of passes that fit
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        now = time.monotonic()
        if len(passes) >= MIN_PASSES and (
                now + statistics.median(lengths) > deadline
                or now - ready > TIME_CAP_S):
            return {"passes": passes, "peak_rss_kb": peak_kb}


def measure_traced(args, items, hs, workdir, reference, trace_out):
    """Two rounds of an untraced workload pass and a traced suite pass.

    A traced pass covers the items of every workload, so each layer is
    measured on the workload that exercises it and no per-layer time
    reads as an unmeasured zero. The run ignores --seconds: it always
    makes these four passes (about 50 s for certify at the seed).
    """
    suite = [it for w in workloads.WORKLOADS
             for it in workloads.items(w, args.seed)]
    mine = set(it.name for it in items)
    passes, untraced, counts, times, layers = [], [], [], [], []
    for _ in range(2):
        rec, _ = run_pass(items, lambda _: hs["cli"].main, workdir,
                          reference)
        passes.append(rec)
        untraced.append(rec["wall_s"])
        tr = tracing.Tracer()
        tracing.install(tr, hs)
        try:
            rec, nbytes = run_pass(
                suite, lambda item: tr.span(tracing.ROOT, hs["cli"].main,
                                            attr=lambda _: item.name),
                workdir, reference)
        finally:
            tr.restore()
        passes.append(rec)
        lay = tracing.Layers(tr.spans)
        layers.append(lay)
        counts.append(tracing.pass_counts(lay, tr.counts, nbytes))
        t = tracing.pass_times(lay)
        t["traced_workload_s"] = sum(r["seconds"] for r in rec["items"]
                                     if r["name"] in mine)
        times.append(t)
        if trace_out and len(layers) == 1:
            with open(trace_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent",
                                      "attr"], "spans": tr.spans}, fh)
    metrics = dict(counts[0])
    for name in times[0]:
        metrics[name] = statistics.median(t[name] for t in times)
    metrics.update(tracing.step_percentiles(layers))
    metrics["trace.overhead_s"] = (metrics.pop("traced_workload_s")
                                   - statistics.median(untraced))
    return {"passes": passes, "layers": metrics,
            "counts_repeat": counts[0] == counts[1]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    hs = import_hskdv()
    if hs is None:
        return 2
    items = workloads.items(args.workload, args.seed)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    ready = time.monotonic()
    out = {"ready": ready}
    if not args.setup_only:
        if args.trace:
            out.update(measure_traced(args, items, hs, args.workdir,
                                      reference, args.trace_out))
        else:
            out.update(measure(args, items, hs, args.workdir, reference,
                               ready))
        out["argv"] = {it.name: it.argv for it in items}
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
