"""Model-validation trends as the coherent beam brightens.

Two effects appear as the displacement grows relative to the squeezing:
(i) the closest classical surrogate approaches the full quantum model in
total variation distance, and (ii) truncating the number of photons
attributed to the squeezers (the k-order approximation) costs less
likelihood on samples drawn from the full model.  Samples that a truncated
model gives probability 0 are flagged and left out of log L.
"""

import math

import numpy as np
from scipy.stats import unitary_group

from dgbs import (ModelSpec, SourceConfig, StateKernel, TransferMatrix,
                  build_classical_input, build_input_state,
                  distribution_from_kernel, likelihood_ratio, propagate, tvd)

d = 10
rng = np.random.default_rng(8)
t = TransferMatrix.square(unitary_group.rvs(d, random_state=rng))

print("classical-surrogate TVD over twofolds (eta=0.1, r~0.3):")
for n_alpha in (0.0, 0.15, 0.7, 2.2):
    cfg = SourceConfig(r=0.3, alpha_mag=math.sqrt(n_alpha), eta_c=0.1)
    full = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
    cls = StateKernel.from_state(propagate(build_classical_input(cfg, d), t))
    dist = tvd(distribution_from_kernel(full, 2),
               distribution_from_kernel(cls, 2, model=ModelSpec("classical")))
    print(f"  <n_alpha>={n_alpha:<4}: D = {dist:.4f}")

print("\nlikelihood ratio L(model vs full) on 200 fourfold samples:")
for n_alpha in (0.7, 2.2):
    cfg = SourceConfig(r=math.asinh(math.sqrt(0.02 / 0.1)),
                       alpha_mag=math.sqrt(n_alpha), eta_c=0.1)
    kern = StateKernel.from_state(propagate(build_input_state(cfg, d), t))
    dist = distribution_from_kernel(kern, 4)
    idx = np.random.default_rng(0).choice(len(dist), size=200,
                                          p=dist.probabilities)
    samples = dist.patterns[idx]
    line = f"  <n_alpha>={n_alpha}:"
    for label in ("korder(0)", "korder(2)", "korder(3)"):
        model = {4: distribution_from_kernel(kern, 4,
                                             model=ModelSpec.parse(label))}
        trace = likelihood_ratio(samples, model, {4: dist})
        line += f"  log L[{label}]={trace.log_ratio:+.2f}"
        if trace.flagged:
            line += f" ({len(trace.flagged)} flagged)"
    print(line)
