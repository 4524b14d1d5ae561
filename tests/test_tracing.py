"""The benchmark's tracer (perfbench/tracing.py) still fits the program.

install() wraps names in every hskdv module by attribute; a name that
is gone raises here instead of leaving a per-layer metric that silently
reads 0. The file is loaded read-only from the perfbench directory.
"""

import importlib.util
import os

import numpy as np
import pytest

from hskdv import (atlas_svg, cli, fre, ibps, phases, picard, regions,
                   sharpness, spectral)
from hskdv.phases import Coefficients

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "perfbench", "tracing.py")
MODULES = {"phases": phases, "regions": regions, "atlas_svg": atlas_svg,
           "spectral": spectral, "picard": picard, "ibps": ibps, "fre": fre,
           "sharpness": sharpness, "cli": cli}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("made", [True, False])
def test_tracer_counts_solver_steps_and_ffts(made):
    # made: make_state's state; otherwise its coefficients rebuilt by
    # SpectralField, as load_snapshot builds a state. Both step on the
    # half space, so the counts are the same.
    tracing = _tracing()
    g = spectral.Grid(40.0, 256)
    st = spectral.make_state(g, lambda x: 0.5 * np.exp(-(x - 20.0) ** 2),
                             lambda x: 0.2 * np.exp(-(x - 20.0) ** 2),
                             Coefficients(0.5))
    if not made:
        st = spectral.SimState(
            0.0, spectral.SpectralField(g, st.uhat.coeffs),
            spectral.SpectralField(g, st.vhat.coeffs), st.params)
    originals = (spectral.step, spectral.run, np.fft.rfft, np.fft.ifft)
    tr = tracing.Tracer()
    try:
        tracing.install(tr, MODULES)
        _, stored = spectral.run(st, spectral.SolverConfig(dt=1e-3), 0.007,
                                 store_every=2)
    finally:
        tr.restore()
    assert (spectral.step, spectral.run, np.fft.rfft,
            np.fft.ifft) == originals
    counts = tracing.pass_counts(tracing.Layers(tr.spans), tr.counts, 0)
    assert counts["spectral.step.calls"] == 7
    assert counts["spectral.fft_per_step"] == 8
    assert counts["spectral.fft.calls"] == 56
    assert counts["spectral.stored_states"] == len(stored) == 5
    pct = tracing.step_percentiles([tracing.Layers(tr.spans)])
    assert pct["spectral.step.n256.p50_ms"] > 0.0


def test_tracer_keeps_a_scan_under_one_fre_sup_span():
    tracing = _tracing()
    originals = (fre.fre_sup, fre.ratio_scan, phases.eval_phase,
                 fre.eval_phase)
    tr = tracing.Tracer()
    try:
        tracing.install(tr, MODULES)
        fre.ratio_scan(fre.make_fre_spec("dxv2", 1.0, 0.5), 2.0)
    finally:
        tr.restore()
    assert (fre.fre_sup, fre.ratio_scan, phases.eval_phase,
            fre.eval_phase) == originals
    counts = tracing.pass_counts(tracing.Layers(tr.spans), tr.counts, 0)
    # one fit, so one phase evaluation, for all distinct fixed frequencies
    assert counts["fre.fre_sup.calls"] == 1
    assert counts["phases.eval_phase.calls"] == 1
    assert counts["phases.eval_phase.points"] == 4 * 172
    times = tracing.pass_times(tracing.Layers(tr.spans))
    assert times["fre.fre_sup.self_s"] > 0.0


@pytest.mark.parametrize("lemma, kwargs", [("L61", dict(a=2.0)),
                                           ("L64", dict()),
                                           ("L67", dict(a=2.0))])
def test_traced_ladder_counts_one_span_per_rung(lemma, kwargs):
    # the certify workload's ladders: one evaluate_rung span per rung,
    # each holding that rung's one check_phase_regime span
    tracing = _tracing()
    originals = (sharpness.evaluate_rung, sharpness.check_phase_regime)
    tr = tracing.Tracer()
    try:
        tracing.install(tr, MODULES)
        sharpness.run_ladder(lemma, Ns=(64, 128, 256), **kwargs)
    finally:
        tr.restore()
    assert (sharpness.evaluate_rung,
            sharpness.check_phase_regime) == originals
    layers = tracing.Layers(tr.spans)
    counts = tracing.pass_counts(layers, tr.counts, 0)
    assert counts["sharpness.evaluate_rung.calls"] == 3
    assert layers.calls["sharpness.check_phase_regime"] == 3
    for name, _, _, parent, _ in tr.spans:
        if name == "sharpness.check_phase_regime":
            assert tr.spans[parent][0] == "sharpness.evaluate_rung"


def test_traced_passes_count_the_same_gauss_legendre_rules():
    # the 64-node rule is built at import, so neither pass builds it; the
    # 6-node rule of the third iterate is built once per call in each
    tracing = _tracing()
    n, w = 64.0, 64.0 ** -0.5
    v0 = picard.BoxData([picard.FrequencyBox(n, n + w),
                         picard.FrequencyBox(-n + 1.25 * w, -n + 1.5 * w)])
    rules = []
    for _ in range(2):
        tr = tracing.Tracer()
        try:
            tracing.install(tr, MODULES)
            sharpness.run_ladder("L61", Ns=(64, 128, 256), a=2.0)
            picard.third_iterate_v(v0, -1.0, 0.01,
                                   (n + 2.0 * w, n + 2.25 * w), gl_nodes=6)
        finally:
            tr.restore()
        counts = tracing.pass_counts(tracing.Layers(tr.spans), tr.counts, 0)
        assert counts["picard.second_iterate.calls"] == 3
        rules.append(counts["picard.gl_rules"])
    assert rules == [1, 1]


def test_traced_ibps_residual_makes_five_ffts_per_state():
    # one ibps_residual span and five FFT calls per state (the solver's
    # irfft/rfft pair, the squares' rfft and the complements' padded
    # irfft/rfft); every patched name comes back, and the ibps names the
    # tracer wraps are still there to patch
    tracing = _tracing()
    g = spectral.Grid(2.0 * np.pi, 64)
    st = spectral.make_state(g, lambda x: 0.5 * np.exp(-(x - np.pi) ** 2),
                             lambda x: 0.4 * np.exp(-(x - np.pi) ** 2),
                             Coefficients(0.5))
    _, stored = spectral.run(st, spectral.SolverConfig(dt=1e-4), 0.0008,
                             store_every=2)
    assert len(stored) == 5
    cut = ibps.CutoffParams(delta_u=0.2, delta_v=0.2)
    tr = tracing.Tracer()
    try:
        tracing.install(tr, MODULES)
        patched = list(tr._saved)
        ibps.ibps_residual(stored, cut)
        residual_ffts = tr.counts["spectral.fft.calls"]
        ibps.eval_term("Bu", stored[0], cut)
        ibps.coupling_terms(stored[0], cut)
        ker = ibps.region_kernels(g, 0.5, cut)
        ker.pair_sum(ker.U, ker.ku, st.uhat.coeffs, st.vhat.coeffs)
    finally:
        tr.restore()
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, attr
    assert {(ibps, "eval_term"), (ibps, "coupling_terms"),
            (ibps, "spectral_product"), (ibps._GridKernels, "pair_sum")
            } <= {(owner, attr) for owner, attr, _ in patched}
    layers = tracing.Layers(tr.spans)
    assert layers.calls["ibps.ibps_residual"] == 1
    assert residual_ffts == 5 * len(stored)
    counts = tracing.pass_counts(layers, tr.counts, 0)
    assert counts["ibps.eval_term.calls"] == 1
    assert layers.calls["ibps.coupling_terms"] == 1
    assert counts["spectral.fft.calls"] == 5 * (len(stored) + 2)
    assert counts["ibps.kernel_bytes"] == 16 * g.n ** 2
