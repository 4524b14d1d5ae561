"""Benchmark of the hskdv CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Runs the workload in a fresh child process (worker.py) that imports
hskdv from this checkout's src/ and calls ``cli.main`` on generated
argv lists. Prints the provenance, every metric by name with its unit,
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
--trace 1 reports the per-layer metrics of a traced run. Exits nonzero
without a result when the child cannot run (for instance when src/hskdv
is missing) or overruns its time limit. Uses the standard library only.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("certify", "simulate", "ibps")
SETUP_SAMPLES = 9          # set-up time is the median over this many starts
LIMIT_S = 170.0            # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# metric names and units come from BENCHMARK.json, the single list of them
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class ChildError(RuntimeError):
    pass


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def provenance(args, env, argv):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "threads": {v: env[v] for v in THREAD_VARS},
        "git_commit": _git_commit(), "argv": argv,
    }


def child_env():
    """Environment of the children: BLAS/OpenMP pinned to one thread."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"        # one thread each, never more than nproc
    return env


def spawn(args, env, workdir, tag, deadline, extra=()):
    """Run worker.py to completion; returns its result and spawn time."""
    result = os.path.join(workdir, tag + ".json")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--result", result] + list(extra)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("no time left to start %s" % tag)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError("%s overran the time limit" % tag)
    if proc.returncode != 0:
        raise ChildError("%s exited with code %d" % (tag, proc.returncode))
    with open(result) as fh:
        return json.load(fh), spawned


def summarize(args, res, setups):
    """(attempted, failed, correct, metrics) of the child's passes."""
    passes = res["passes"]
    items = [it for p in passes for it in p["items"]]
    failed = sum(1 for it in items if not it["ok"])
    correct = failed == 0 and bool(passes)
    if args.trace:
        correct = correct and res["counts_repeat"]
        values = res["layers"]
        units = LAYER_UNITS
    else:
        # a pass with a failed item never counts as a faster pass
        clean = [p["wall_s"] for p in passes
                 if all(it["ok"] for it in p["items"])]
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(clean or
                                              [p["wall_s"] for p in passes]),
                  "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return len(items), failed, correct, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + LIMIT_S
    env = child_env()
    workdir = os.path.join(ROOT, ".perfbench_work", "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    outdir = os.path.join(ROOT, ".perfbench_out")
    tag = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                res, spawned = spawn(args, env, workdir, "setup%d" % i,
                                     deadline, ["--setup-only"])
                setups.append(res["ready"] - spawned)
        extra = []
        if args.trace:
            extra = ["--trace-out", os.path.join(outdir, "spans_%s.json"
                                                 % tag)]
        res, spawned = spawn(args, env, workdir, "run", deadline, extra)
        setups.append(res["ready"] - spawned)
    except ChildError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass            # another run still uses it

    attempted, failed, correct, metrics = summarize(args, res, setups)
    prov = provenance(args, env, res["argv"])
    print("provenance %s" % json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print("metric %-38s %.6g %s" % (name, m["value"], m["unit"]))
    print("metric %-38s %.6g %s" % ("fail_rate", failed / attempted,
                                    "failed/attempted"))
    with open(os.path.join(outdir, "result_%s.json" % tag), "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics,
                   "setup_samples_s": setups, "passes": res["passes"]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
