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


@pytest.mark.parametrize("hermitian", [True, False])
def test_tracer_counts_solver_steps_and_ffts(hermitian):
    tracing = _tracing()
    g = spectral.Grid(40.0, 256)
    st = spectral.make_state(g, lambda x: 0.5 * np.exp(-(x - 20.0) ** 2),
                             lambda x: 0.2 * np.exp(-(x - 20.0) ** 2),
                             Coefficients(0.5))
    if not hermitian:  # the full space
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
