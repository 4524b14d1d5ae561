"""Spans and counters at the hskdv layer boundaries.

For a traced pass the wrappers below are set on module and class
attributes and removed afterwards, so untraced passes run the
unmodified program. A re-exported name is wrapped at every binding:
``eval_phase`` in phases, picard, sharpness, ibps and fre, and
``spectral_product`` in spectral and ibps. A span records its name,
start, end, parent and one attribute; self time is a span's duration
minus the durations of its children.
"""

import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, attr]
        self.stack = []
        self.counts = Counter()
        self._saved = []

    def span(self, name, fn, attr=None, after=None):
        """Wrap fn in a span; attr(args) labels it, after(result) counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   attr(args) if attr else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(result)
            return result
        return wrapper

    def counter(self, fn, count):
        """Wrap fn so that count(args) runs before every call."""
        def wrapper(*args, **kwargs):
            count(args)
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def in_span(self, name):
        return any(self.spans[i][0] == name for i in self.stack)


def install(tr, hs):
    """Set every wrapper; hs maps module names to the hskdv modules."""
    phases, picard, sharpness = hs["phases"], hs["picard"], hs["sharpness"]
    fre, spectral, ibps, cli = hs["fre"], hs["spectral"], hs["ibps"], hs["cli"]

    def phase_points(args):
        tr.counts["phases.eval_phase.points"] += int(
            np.broadcast(*[np.asarray(f) for f in args[2]]).size)

    ep = tr.span("phases.eval_phase",
                 tr.counter(phases.eval_phase, phase_points))
    for mod in (phases, picard, sharpness, ibps, fre):
        tr.patch(mod, "eval_phase", ep)
    sp = tr.span("spectral.spectral_product", spectral.spectral_product)
    for mod in (spectral, ibps):
        tr.patch(mod, "spectral_product", sp)

    def simple(owner, name, label, **kw):
        tr.patch(owner, name, tr.span(label, getattr(owner, name), **kw))

    simple(picard, "_second_iterate", "picard.second_iterate")
    simple(picard, "third_iterate_v", "picard.third_iterate_v")
    simple(picard, "duhamel_kernel", "picard.duhamel_kernel")
    simple(np.polynomial.legendre, "leggauss", "picard.gl_rules")
    simple(sharpness, "evaluate_rung", "sharpness.evaluate_rung")
    simple(sharpness, "check_phase_regime", "sharpness.check_phase_regime")
    simple(fre, "fre_sup", "fre.fre_sup")
    simple(fre, "ratio_scan", "fre.ratio_scan")
    simple(hs["regions"], "classify", "regions.classify")
    simple(hs["atlas_svg"], "render_svg", "atlas_svg.render_svg")
    simple(spectral, "step", "spectral.step", attr=lambda a: a[0].grid.n)
    simple(spectral, "invariants_eval", "spectral.invariants_eval")

    def stored(result):
        tr.counts["spectral.stored_states"] += len(result[1])

    simple(spectral, "run", "spectral.run", after=stored)
    simple(ibps, "eval_term", "ibps.eval_term")
    simple(ibps, "coupling_terms", "ibps.coupling_terms")
    simple(ibps, "ibps_residual", "ibps.ibps_residual")

    def kernel_bytes(args):
        # computed, not measured: one complex128 n x n kernel per pair sum
        tr.counts["ibps.kernel_bytes"] += 16 * args[0].grid.n ** 2

    tr.patch(ibps._GridKernels, "pair_sum",
             tr.counter(ibps._GridKernels.pair_sum, kernel_bytes))

    def fft_count(args):
        tr.counts["spectral.fft.calls"] += 1
        tr.counts["spectral.fft.points"] += int(np.size(args[0]))
        if tr.in_span("spectral.step"):
            tr.counts["fft_in_step"] += 1

    for name in ("fft", "ifft", "rfft", "irfft"):
        tr.patch(np.fft, name, tr.counter(getattr(np.fft, name), fft_count))
    for owner, attr in ((cli._Artifacts, "write_text"),
                        (cli._Artifacts, "write_json"),
                        (spectral, "trajectory_csv"),
                        (spectral, "save_snapshot"),
                        (picard.PicardOutput, "to_csv")):
        simple(owner, attr, "cli.io")


class Layers:
    """Per-name calls, total and self time of one traced pass."""

    def __init__(self, spans):
        dur = [end - start for _, start, end, _, _ in spans]
        child = [0.0] * len(spans)
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                child[rec[3]] += dur[i]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        for i, (name, _, _, _, attr) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += dur[i]
            self.self_s[name] += dur[i] - child[i]
            self.durations[(name, None)].append(dur[i])
            if attr is not None:
                self.durations[(name, attr)].append(dur[i])


def _pct(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def pass_counts(layers, counts, bytes_written):
    """Count metrics of one traced pass; they must repeat exactly."""
    steps = layers.calls["spectral.step"]
    return {
        "phases.eval_phase.calls": layers.calls["phases.eval_phase"],
        "phases.eval_phase.points": counts["phases.eval_phase.points"],
        "picard.second_iterate.calls": layers.calls["picard.second_iterate"],
        "picard.duhamel_kernel.calls": layers.calls["picard.duhamel_kernel"],
        "picard.gl_rules": layers.calls["picard.gl_rules"],
        "sharpness.evaluate_rung.calls":
            layers.calls["sharpness.evaluate_rung"],
        "fre.fre_sup.calls": layers.calls["fre.fre_sup"],
        "spectral.step.calls": steps,
        "spectral.spectral_product.calls":
            layers.calls["spectral.spectral_product"],
        "spectral.fft.calls": counts["spectral.fft.calls"],
        "spectral.fft_per_step": counts["fft_in_step"] / steps if steps else 0,
        "spectral.fft.points": counts["spectral.fft.points"],
        "spectral.stored_states": counts["spectral.stored_states"],
        "ibps.eval_term.calls": layers.calls["ibps.eval_term"],
        "ibps.kernel_bytes": counts["ibps.kernel_bytes"],
        "cli.bytes_written": bytes_written,
    }


SELF_TIMES = ("phases.eval_phase", "picard.second_iterate",
              "picard.third_iterate_v", "picard.duhamel_kernel",
              "picard.gl_rules", "sharpness.check_phase_regime",
              "fre.fre_sup", "spectral.step", "spectral.spectral_product",
              "spectral.invariants_eval", "ibps.eval_term",
              "ibps.coupling_terms", "cli.io")
TOTAL_TIMES = ("fre.ratio_scan", "regions.classify", "atlas_svg.render_svg",
               "ibps.ibps_residual")


def pass_times(layers):
    """Time metrics (seconds) of one traced pass."""
    out = {name + ".self_s": layers.self_s[name] for name in SELF_TIMES}
    out.update({name + ".s": layers.total[name] for name in TOTAL_TIMES})
    out["sharpness.evaluate_rung.p50_s"] = statistics.median(
        layers.durations[("sharpness.evaluate_rung", None)] or [0.0])
    return out


def step_percentiles(all_layers):
    """Step duration percentiles (ms) pooled over the traced passes."""
    out = {}
    for n in (256, 1024):
        d = [x for lay in all_layers
             for x in lay.durations[("spectral.step", n)]]
        out["spectral.step.n%d.p50_ms" % n] = 1e3 * _pct(d, 0.50)
        out["spectral.step.n%d.p99_ms" % n] = 1e3 * _pct(d, 0.99)
    return out
