#!/usr/bin/env python3
"""Run the pseudospectral solver and watch the conserved quantities.

A Gaussian bump in both components, a = 1/2 and the coupling
(beta, gamma, theta) = (1/2, 1, 1), so that beta = a theta. Both the
mass M = int u^2 - 2 v^2 dx and the energy E_H (invariants_eval) should
be flat to many digits; E_H is NaN for couplings with beta != a theta.
"""

import numpy as np

from hskdv import spectral
from hskdv.phases import Coefficients

g = spectral.Grid(40.0, 256)
p = Coefficients(0.5, beta=0.5, gamma=1.0, theta=1.0)
bump = lambda x: 0.5 * np.exp(-((x - 20.0) / 2.0) ** 2)
state = spectral.make_state(g, bump, lambda x: 0.4 * bump(x), p)

cfg = spectral.SolverConfig(dt=1e-4)
final, stored = spectral.run(state, cfg, 0.5, store_every=1000)

print(" t        |u|_L2      |v|_L2      M               E_H")
for st in stored:
    inv = spectral.invariants_eval(st)
    print("%5.2f  %10.6f  %10.6f  %.12f  %.12f"
          % (st.t, spectral.sobolev_norm(st.uhat, 0.0),
             spectral.sobolev_norm(st.vhat, 0.0), inv["M"], inv["E"]))

inv0 = spectral.invariants_eval(stored[0])
inv1 = spectral.invariants_eval(final)
for key, name in (("M", "mass"), ("E", "energy E_H")):
    print("relative %s drift over T=0.5:" % name,
          abs(inv1[key] - inv0[key]) / abs(inv0[key]))
