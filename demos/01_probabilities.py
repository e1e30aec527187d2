"""Walk through the probability engine on a small displaced GBS circuit.

Builds the three-source input (two squeezers + one coherent beam), sends it
through a lossy random interferometer and prints detection probabilities
under the full model and its approximations.
"""

import math

import numpy as np
from scipy.stats import unitary_group

from dgbs import (ModelSpec, SourceConfig, StateKernel, TransferMatrix,
                  build_classical_input, build_input_state,
                  distribution_from_kernel, predict_twofold, propagate, tvd)

d = 5
rng = np.random.default_rng(7)
u = unitary_group.rvs(d, random_state=rng)
t = TransferMatrix.square(math.sqrt(0.6) * u)  # 60% end-to-end efficiency

cfg = SourceConfig(r=0.45, alpha_mag=0.9, phi=0.3)
print(f"sources: r={cfg.r}, |alpha|={cfg.alpha_mag}, phi={cfg.phi}")
print(f"mean squeezer photons per pulse (detected): {2 * cfg.n_pdc:.4f}")

state = propagate(build_input_state(cfg, d), t)
kern = StateKernel.from_state(state)
print(f"vacuum probability: {kern.p_vac:.6f}\n")

# one threefold pattern, a row of photon counts, under every model
n = (1, 1, 0, 1, 0)
print(f"pattern {n}:")
for label in ("full", "squeezer_only", "korder(0)", "korder(1)",
              "korder(2)", "korder(3)"):
    p = kern.pattern_probabilities([n], ModelSpec.parse(label))[0]
    print(f"  {label:>14}: {p:.3e}")

# the k-order terms themselves: entry k is the contribution in which k
# photons came from the squeezers
terms = kern.pattern_terms([n])[0]
print(f"\nterm magnitudes by squeezer-photon count: "
      f"{np.abs(terms.real) * kern.p_vac}")

# twofold fringe prediction p'_jk(phi) = a + b cos(2 phi + c)
blocked, unblocked = predict_twofold(kern, 0, 2, 0.0)
print(f"\ntwofold (0,2): blocked {blocked:.4e}, unblocked at phi=0 "
      f"{unblocked:.4e}")

# distance to the closest classical surrogate over all twofolds
classical = StateKernel.from_state(propagate(build_classical_input(cfg, d), t))
da = distribution_from_kernel(kern, 2)
db = distribution_from_kernel(classical, 2, model=ModelSpec("classical"))
print(f"twofold TVD(full, classical surrogate): {tvd(da, db):.4f}")
