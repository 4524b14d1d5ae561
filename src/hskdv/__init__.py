"""Numerical laboratory for a coupled KdV-KdV (Hirota-Satsuma type)
system: resonance-phase algebra, the (k, s) regularity-region atlas,
a pseudospectral solver, Picard-iterate evaluation, decomposition
consistency checks, frequency-restricted-estimate scans and
norm-inflation sharpness ladders."""

from .phases import Coefficients, eval_phase, mu, phase_floor
from .regions import (RegularityPoint, Verdict, BoundarySegment, in_A,
                      in_A0, classify, classify_gwp, boundary_segments)
from .spectral import (Grid, SpectralField, SimState, SolverConfig,
                       StabilityError, make_state, step, run,
                       sobolev_norm, invariants_eval)
from .picard import (FrequencyBox, BoxData, PicardOutput, duhamel_kernel,
                     second_iterate_u, second_iterate_v, third_iterate_v,
                     hs_norm_window)
from .ibps import CutoffParams, eval_term, coupling_terms, ibps_residual
from .fre import make_fre_spec, level_set_measure, fre_sup, ratio_scan
from .sharpness import (CounterexampleSpec, build, predicted_slope,
                        run_ladder, verdict, ladder_report)

__version__ = "0.1.0"

__all__ = [
    "Coefficients", "eval_phase", "mu", "phase_floor",
    "RegularityPoint", "Verdict", "BoundarySegment", "in_A", "in_A0",
    "classify", "classify_gwp", "boundary_segments",
    "Grid", "SpectralField", "SimState", "SolverConfig",
    "StabilityError", "make_state", "step", "run", "sobolev_norm",
    "invariants_eval",
    "FrequencyBox", "BoxData", "PicardOutput", "duhamel_kernel",
    "second_iterate_u", "second_iterate_v", "third_iterate_v",
    "hs_norm_window",
    "CutoffParams", "eval_term", "coupling_terms", "ibps_residual",
    "make_fre_spec", "level_set_measure", "fre_sup", "ratio_scan",
    "CounterexampleSpec", "build", "predicted_slope", "run_ladder",
    "verdict", "ladder_report",
    "__version__",
]
