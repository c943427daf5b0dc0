"""Power-law MLE, gravity OLS, and validation regressions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoflow.models import (
    binned_powerlaw_check,
    capital_distances,
    fit_gravity,
    fit_power_law,
    log_binned_density,
    loglog_regression,
    validate_external,
)
from geoflow.sphere import haversine_km
from helpers import log_binned_density as bin_walk, sample_power_law

# analytic expectation of the MLE on a sample truncated at xmax/xmin = 1e8
PLIM_162_RATIO_1E8 = 1.62007765120615


# ---------------------------------------------------------------- power law


def test_mle_closed_form_example():
    fit = fit_power_law([2.0, 4.0, 8.0], xmin=2.0)
    # sum ln(x/2) = 3 ln 2 -> beta = 1 + 1/ln 2
    assert fit.exponent == pytest.approx(1.0 + 1.0 / math.log(2.0), abs=1e-12)
    assert fit.exponent == pytest.approx(2.4426950408889634, abs=1e-12)
    assert fit.n_tail == 3
    assert fit.stderr == pytest.approx((fit.exponent - 1.0) / math.sqrt(3.0), abs=1e-12)
    assert fit.xmin == 2.0


def test_samples_below_xmin_are_ignored():
    with_noise = fit_power_law([0.1, 0.5, 2.0, 4.0, 8.0], xmin=2.0)
    clean = fit_power_law([2.0, 4.0, 8.0], xmin=2.0)
    assert with_noise == clean


def test_tail_needs_two_samples():
    with pytest.raises(ValueError):
        fit_power_law([1.0], xmin=0.5)
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], xmin=10.0)


def test_degenerate_tail_rejected():
    with pytest.raises(ValueError):
        fit_power_law([3.0, 3.0, 3.0], xmin=3.0)


def test_nonpositive_xmin_rejected():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], xmin=0.0)


@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**31 - 1))
def test_exponent_is_scale_equivariant(c, seed):
    samples = sample_power_law(seed % 7, 1.7, 1.0, 1e5, 200)
    base = fit_power_law(samples, xmin=1.0)
    scaled = fit_power_law([x * c for x in samples], xmin=c)
    assert scaled.exponent == pytest.approx(base.exponent, rel=1e-9)
    assert scaled.n_tail == base.n_tail


def test_sampled_exponent_within_three_sigma_of_analytic_limit():
    samples = sample_power_law(0, 1.62, 1.0, 1e8, 50_000)
    fit = fit_power_law(samples, xmin=1.0)
    assert abs(fit.exponent - PLIM_162_RATIO_1E8) <= 3.0 * fit.stderr
    assert fit.exponent == pytest.approx(1.62, abs=0.02)


# ---------------------------------------------------------------- gravity


def grid_world(n=8, A=2.0, alpha=0.8, beta=0.6, gamma=1.0):
    """Hand-rolled noiseless flows, independent of the synth generator."""
    codes = [f"C{i}" for i in range(n)]
    capitals = {c: (10.0 * (i % 3) - 10.0, 25.0 * (i // 3) - 30.0) for i, c in enumerate(codes)}
    populations = {c: 1e5 * (1 + 2 * i) for i, c in enumerate(codes)}
    distances = capital_distances(capitals)
    flows = {}
    for o in codes:
        for d in codes:
            if o != d:
                flows[(o, d)] = (
                    A * populations[o] ** alpha * populations[d] ** beta / distances[(o, d)] ** gamma
                )
    return flows, populations, distances


def test_noiseless_flows_recover_exponents():
    flows, populations, distances = grid_world()
    fit = fit_gravity(flows, populations, distances)
    assert fit.alpha == pytest.approx(0.8, abs=1e-9)
    assert fit.beta == pytest.approx(0.6, abs=1e-9)
    assert fit.gamma == pytest.approx(1.0, abs=1e-9)
    assert math.exp(fit.logA) == pytest.approx(2.0, rel=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.n_pairs == len(flows)


def test_forward_evaluation_identity():
    flows, populations, distances = grid_world(A=1.0, alpha=1.0, beta=1.0, gamma=1.0)
    (o, d), f = next(iter(flows.items()))
    assert f * distances[(o, d)] == pytest.approx(populations[o] * populations[d], rel=1e-12)


def test_short_pairs_are_excluded():
    clean_flows, populations, distances = grid_world()
    # add two capitals 50 km apart; their pair must not enter the fit
    populations |= {"X1": 1e5, "X2": 1e5}
    distances[("X1", "X2")] = 50.0
    flows = dict(clean_flows)
    flows[("X1", "X2")] = 123.0
    fit = fit_gravity(flows, populations, distances)
    clean = fit_gravity(clean_flows, populations, distances)
    assert fit.n_short_excluded == 1
    assert fit.n_pairs == clean.n_pairs
    assert fit.alpha == clean.alpha and fit.gamma == clean.gamma


def test_zero_flows_are_excluded_and_counted():
    flows, populations, distances = grid_world()
    flows[("C0", "C1")] = 0.0
    fit = fit_gravity(flows, populations, distances)
    assert fit.n_zero_excluded == 1
    assert fit.n_pairs == len(flows) - 1


def test_missing_distances_are_counted():
    flows, populations, distances = grid_world()
    distances = {k: v for k, v in distances.items() if k != ("C0", "C1") and k != ("C1", "C0")}
    fit = fit_gravity(flows, populations, distances)
    assert fit.n_missing_distance == 2  # both directions of the pair


def test_distance_lookup_tries_both_orders():
    flows, populations, distances = grid_world()
    one_way = {(o, d): r for (o, d), r in distances.items() if o < d}
    fit = fit_gravity(flows, populations, one_way)
    assert fit.n_missing_distance == 0
    assert fit.alpha == pytest.approx(0.8, abs=1e-9)


def test_too_few_pairs_rejected():
    flows = {("A", "B"): 10.0, ("B", "A"): 9.0, ("A", "C"): 8.0, ("C", "A"): 7.0}
    populations = {"A": 1e5, "B": 2e5, "C": 3e5}
    distances = {("A", "B"): 500.0, ("A", "C"): 700.0, ("B", "C"): 900.0}
    with pytest.raises(ValueError, match="pairs"):
        fit_gravity(flows, populations, distances)


def test_equal_distances_make_design_degenerate():
    codes = [f"C{i}" for i in range(5)]
    populations = {c: 1e5 * (i + 1) for i, c in enumerate(codes)}
    distances = {(o, d): 1000.0 for o in codes for d in codes if o != d}
    flows = {(o, d): populations[o] * populations[d] / 1000.0 for o in codes for d in codes if o != d}
    with pytest.raises(ValueError, match="degenerate design"):
        fit_gravity(flows, populations, distances)


def test_missing_population_rejected():
    flows, populations, distances = grid_world()
    del populations["C3"]
    with pytest.raises(ValueError):
        fit_gravity(flows, populations, distances)


def test_nonpositive_population_rejected():
    flows, populations, distances = grid_world()
    populations["C3"] = 0.0
    with pytest.raises(ValueError):
        fit_gravity(flows, populations, distances)


def test_self_flows_are_ignored():
    flows, populations, distances = grid_world()
    with_loops = dict(flows) | {("C0", "C0"): 1e9}
    fit = fit_gravity(with_loops, populations, distances)
    assert fit.n_pairs == len(flows)


def test_capital_distances_properties():
    capitals = {"AA": (48.8566, 2.3522), "BB": (52.52, 13.405), "CC": (40.4168, -3.7038)}
    distances = capital_distances(capitals)
    for a in capitals:
        assert distances[(a, a)] == 0.0
        for b in capitals:
            assert distances[(a, b)] == distances[(b, a)]
            if a != b:
                assert distances[(a, b)] == pytest.approx(
                    haversine_km(capitals[a], capitals[b]), abs=1e-9
                )


# ---------------------------------------------------------------- regressions


def test_loglog_square_law_is_exact():
    x = [1.0, 2.0, 4.0, 9.0, 16.0]
    y = [v**2 for v in x]
    exponent, intercept, r2 = loglog_regression(x, y)
    assert exponent == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_loglog_recovers_prefactor():
    x = [1.0, 3.0, 7.0, 20.0]
    y = [3.0 * v**0.7 for v in x]
    exponent, intercept, r2 = loglog_regression(x, y)
    assert exponent == pytest.approx(0.7, abs=1e-9)
    assert math.exp(intercept) == pytest.approx(3.0, rel=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-9)


def test_loglog_rejects_nonpositive_points():
    with pytest.raises(ValueError):
        loglog_regression([1.0, 2.0, 0.0], [1.0, 4.0, 16.0])
    with pytest.raises(ValueError):
        loglog_regression([1.0, 2.0, 4.0], [1.0, -4.0, 16.0])


def test_loglog_needs_three_points():
    with pytest.raises(ValueError):
        loglog_regression([1.0, 2.0], [1.0, 2.0])


def test_loglog_constant_target_is_perfect_flat_fit():
    exponent, intercept, r2 = loglog_regression([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
    assert exponent == pytest.approx(0.0, abs=1e-12)
    assert math.exp(intercept) == pytest.approx(5.0, rel=1e-12)
    assert r2 == 1.0


def test_validate_external_perfect_proportionality():
    estimates = {"AA": 10.0, "BB": 100.0, "CC": 1000.0, "DD": 17.0}
    reference = {code: 2.0 * value for code, value in estimates.items()}
    r2, matched = validate_external(estimates, reference)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert matched == 4


def test_validate_external_uses_intersection_only():
    estimates = {"AA": 10.0, "BB": 100.0, "CC": 1000.0, "XX": 5.0}
    reference = {"AA": 20.0, "BB": 200.0, "CC": 2000.0, "YY": 7.0}
    r2, matched = validate_external(estimates, reference)
    assert matched == 3
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_validate_external_needs_three_matches():
    with pytest.raises(ValueError):
        validate_external({"AA": 1.0, "BB": 2.0}, {"AA": 1.0, "BB": 2.0})


def test_validate_external_constant_estimates_explain_nothing():
    estimates = {"AA": 5.0, "BB": 5.0, "CC": 5.0}
    reference = {"AA": 1.0, "BB": 100.0, "CC": 10000.0}
    r2, _ = validate_external(estimates, reference)
    assert r2 == 0.0


def test_validate_external_constant_reference_scores_zero():
    estimates = {"AA": 1.0, "BB": 100.0, "CC": 10000.0}
    reference = {"AA": 5.0, "BB": 5.0, "CC": 5.0}
    r2, _ = validate_external(estimates, reference)
    assert r2 == 0.0


# ---------------------------------------------------------------- binned checks


@given(
    st.lists(
        st.floats(-1.0, 1e6, allow_nan=False)
        | st.sampled_from([0.0, 1.0, 2.0, 0.5, 1024.0, 3.0])  # zero, powers of the base (bin edges), a non-edge
        | st.integers(-3, 20).map(lambda k: math.nextafter(2.0**k, 0.0)),  # one ulp below an edge
        max_size=60,
    )
)
def test_log_binned_density_matches_the_bin_walk(samples):
    try:
        want = bin_walk(samples)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            log_binned_density(samples)
        return
    assert log_binned_density(samples) == want


def test_log_binned_density_integrates_to_one():
    samples = sample_power_law(1, 1.62, 1.0, 1e4, 5_000)
    centers, densities = log_binned_density(samples)
    assert len(centers) == len(densities)
    assert all(c > 0 for c in centers)
    assert centers == sorted(centers)
    # sum(density * width) telescopes back to the total probability mass
    total = 0.0
    edge = 1.0
    # reconstruct widths from the geometric layout: center = sqrt(lo*hi), hi = 2*lo
    for center, density in zip(centers, densities):
        lo = center / math.sqrt(2.0)
        total += density * lo  # width = 2*lo - lo = lo
    assert total == pytest.approx(1.0, rel=1e-9)


def test_binned_slope_matches_planted_exponent():
    # stratified inverse-CDF sample: negligible sampling noise in every bin
    n = 200_000
    u = (np.arange(n) + 0.5) / n
    beta, ratio = 1.62, 1e4
    x = (1.0 + u * (ratio ** (1.0 - beta) - 1.0)) ** (1.0 / (1.0 - beta))
    exponent, _, r2 = binned_powerlaw_check(x.tolist())
    assert exponent == pytest.approx(beta, abs=0.1)
    assert r2 > 0.98


def test_binned_check_needs_three_bins():
    with pytest.raises(ValueError):
        binned_powerlaw_check([1.0, 1.01, 1.02])
