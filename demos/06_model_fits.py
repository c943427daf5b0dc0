"""Fitting the two mobility models and cross-checking the estimators.

The generators plant known parameters, so every fit here has a right
answer to compare against.
"""

import numpy as np

from geoflow.models import (
    binned_powerlaw_check,
    capital_distances,
    fit_gravity,
    fit_power_law,
    validate_external,
)
from geoflow.synth import expected_flows, make_world

# ---- power-law tail, MLE vs log-binned slope --------------------------------


def power_law(exponent, xmax, n=100_000):
    """Inverse-CDF draws of a power law on [1, xmax): (1 + u (xmax^(1-b) - 1))^(1/(1-b))."""
    u = np.random.default_rng(0).random(n)
    return ((1.0 + u * (xmax ** (1.0 - exponent) - 1.0)) ** (1.0 / (1.0 - exponent))).tolist()


samples = power_law(1.62, xmax=1e4)
mle = fit_power_law(samples, xmin=1.0)
print(f"displacement exponent: planted 1.62, MLE {mle.exponent:.4f} ± {mle.stderr:.4f} "
      f"({mle.n_tail:,} tail samples)")

slope, _, r2 = binned_powerlaw_check(samples)
print(f"log-binned cross-check: slope {slope:.3f}, r2 {r2:.4f}")

# truncation bias: the same exponent fitted on a short range drifts up
short = fit_power_law(power_law(1.62, xmax=100.0), xmin=1.0)
print(f"two-decade truncation pushes the estimate to {short.exponent:.3f}")

# ---- gravity model on planted flows -----------------------------------------

world = make_world(15, A=3.0, alpha=0.89, beta=0.69, gamma=1.1)
flows = expected_flows(world)
populations = {c.code: float(c.population) for c in world.countries}
distances = capital_distances({c.code: c.capital for c in world.countries})

fit = fit_gravity(flows, populations, distances)
print(f"\ngravity fit on {fit.n_pairs} pairs:")
print(f"  origin exponent      {fit.alpha:.4f}  (planted 0.89)")
print(f"  destination exponent {fit.beta:.4f}  (planted 0.69)")
print(f"  distance exponent    {fit.gamma:.4f}  (planted 1.10)")
print(f"  r2 = {fit.r2}")

# ---- validation against an external reference -------------------------------

inflows = {c: sum(f for (o, d), f in flows.items() if d == c) for c in populations}
reference = {c: 2.5 * v + 1e5 for c, v in inflows.items()}  # linear in the estimate
r2, matched = validate_external(inflows, reference)
print(f"\nvalidation vs reference table: r2 {r2:.4f} over {matched} countries")
