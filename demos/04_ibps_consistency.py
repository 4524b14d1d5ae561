#!/usr/bin/env python3
"""Check the integration-by-parts decomposition against the solver.

On the problematic frequency regions the coupling integrals are
integrated by parts in time: boundary terms B plus cubic terms N1-N3
replace the region part of the classical quadratic terms. Both
reconstructions of the profiles must agree; the residual below is pure
time-quadrature defect and drops at fourth order in the Simpson step.
"""

import numpy as np

from hskdv import ibps, spectral
from hskdv.phases import Coefficients

g = spectral.Grid(2.0 * np.pi, 128)
p = Coefficients(0.5, beta=1.0, gamma=1.0, theta=1.0)
c = g.L / 2.0
bump = lambda x: 0.5 * np.exp(-((x - c) / 0.25) ** 2)
state = spectral.make_state(g, bump, lambda x: bump(x) * np.cos(x), p)

_, stored = spectral.run(state, spectral.SolverConfig(dt=4e-5),
                         512 * 4e-5, store_every=2)
cut = ibps.CutoffParams(delta_u=0.05, delta_v=0.05, eta_sim=0.1)

print("region membership samples:")
print("  in_U(0.5, 30, 29, 1)  =", ibps.in_U(0.5, 30.0, 29.0, 1.0, cut))
print("  in_U(-1,  30, 15, 15) =", ibps.in_U(-1.0, 30.0, 15.0, 15.0, cut))
print("  in_V(30, 29, 1)       =", ibps.in_V(30.0, 29.0, 1.0, cut))

for step in (8, 4, 2, 1):
    traj = stored[::step]
    res = ibps.ibps_residual(traj, cut)
    print("states=%4d  residual=%.3e" % (len(traj), res))
