"""Statistical models: power-law tail fits, gravity-model regression,
log-log scaling fits, and external-reference validation.

All fits are closed-form (MLE or ordinary least squares); nothing here is
iterative or randomized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from . import ingest
from .sphere import haversine_km


@dataclass(slots=True)
class PowerLawFit:
    """Continuous power-law tail fit for samples >= xmin."""

    exponent: float  # beta > 1
    xmin: float
    n_tail: int
    stderr: float  # (beta - 1) / sqrt(n_tail)


@dataclass(slots=True)
class GravityFit:
    """Log-space least squares of F = A * p_i^alpha * p_j^beta / r^gamma."""

    logA: float
    alpha: float
    beta: float
    gamma: float
    r2: float
    n_pairs: int
    n_zero_excluded: int = 0
    n_short_excluded: int = 0
    n_missing_distance: int = 0


def fit_power_law(samples: Sequence[float] | np.ndarray, xmin: float) -> PowerLawFit:
    """Maximum-likelihood exponent of a continuous power-law tail.

    beta = 1 + n / sum(ln(x_i / xmin)) over the samples at or above xmin;
    samples below xmin are not part of the tail and are ignored.
    """
    if xmin <= 0:
        raise ValueError(f"xmin must be positive, got {xmin}")
    samples = np.asarray(samples, dtype=np.float64)
    ratios = samples[samples >= xmin] / xmin  # the division a scalar loop makes, elementwise
    if len(ratios) < 2:
        raise ValueError(f"need >= 2 samples at or above xmin, got {len(ratios)}")
    # Scalar math.log: numpy 2.4's np.log differs in the last bit on 42 of 201k tail samples of four synth worlds.
    # ingest.BLOCK_ROWS samples at a time become Python floats: that bounds the transient whatever the count.
    blocks = (ratios[i : i + ingest.BLOCK_ROWS].tolist() for i in range(0, len(ratios), ingest.BLOCK_ROWS))
    log_sum = math.fsum(map(math.log, chain.from_iterable(blocks)))
    if log_sum <= 0.0:
        raise ValueError("degenerate tail: all samples equal xmin")
    beta = 1.0 + len(ratios) / log_sum
    return PowerLawFit(
        exponent=beta,
        xmin=xmin,
        n_tail=len(ratios),
        stderr=(beta - 1.0) / math.sqrt(len(ratios)),
    )


def _r2(y: np.ndarray, y_hat: np.ndarray, degenerate: float) -> float:
    """Coefficient of determination with an explicit degenerate-case value.

    When y has (numerically) no variance the usual ratio is meaningless;
    `degenerate` supplies the convention the caller wants, except that a
    nonzero residual on a flat target always scores 0.
    """
    residual = float(np.sum((y - y_hat) ** 2))
    total = float(np.sum((y - y.mean()) ** 2))
    floor = 1e-12 * len(y) * max(1.0, float(y.mean()) ** 2)
    if total <= floor:
        return degenerate if residual <= floor else 0.0
    return 1.0 - residual / total


def fit_gravity(
    flows: Mapping[tuple[str, str], float],
    populations: Mapping[str, float],
    distances_km: Mapping[tuple[str, str], float],
    min_distance_km: float = 100.0,
) -> GravityFit:
    """OLS fit of ln F = lnA + alpha ln p_i + beta ln p_j - gamma ln r.

    Uses ordered pairs with positive flow and distance at or above
    min_distance_km; zero flows and close pairs are excluded and counted,
    as are pairs with no known distance. The flows map (origin,
    destination) to a weight, raw or estimated; pair them with
    platform-resident or census populations to match.
    """
    pair_flows = {k: float(v) for k, v in flows.items()}
    rows: list[tuple[float, float, float, float]] = []
    n_zero = n_short = n_nodist = 0
    for (origin, destination), flow in sorted(pair_flows.items()):
        if origin == destination:
            continue
        if flow <= 0.0:
            n_zero += 1
            continue
        distance = distances_km.get((origin, destination))
        if distance is None:
            distance = distances_km.get((destination, origin))
        if distance is None:
            n_nodist += 1
            continue
        if distance < min_distance_km:
            n_short += 1
            continue
        for code in (origin, destination):
            if populations.get(code, 0.0) <= 0.0:
                raise ValueError(f"population missing or nonpositive for {code}")
        rows.append(
            (
                math.log(populations[origin]),
                math.log(populations[destination]),
                math.log(distance),
                math.log(flow),
            )
        )
    if len(rows) < 5:
        raise ValueError(f"need >= 5 usable pairs, got {len(rows)}")
    data = np.array(rows, dtype=float)
    design = np.column_stack([np.ones(len(rows)), data[:, 0], data[:, 1], data[:, 2]])
    target = data[:, 3]
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise ValueError("degenerate design: predictor columns are linearly dependent")
    coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    r2 = _r2(target, design @ coef, degenerate=1.0)
    return GravityFit(
        logA=float(coef[0]),
        alpha=float(coef[1]),
        beta=float(coef[2]),
        gamma=float(-coef[3]),
        r2=r2,
        n_pairs=len(rows),
        n_zero_excluded=n_zero,
        n_short_excluded=n_short,
        n_missing_distance=n_nodist,
    )


def capital_distances(capitals: Mapping[str, tuple[float, float]]) -> dict[tuple[str, str], float]:
    """Pairwise great-circle distances between capitals; symmetric, zero diagonal."""
    codes = sorted(capitals)
    out: dict[tuple[str, str], float] = {}
    for i, a in enumerate(codes):
        out[(a, a)] = 0.0
        for b in codes[i + 1 :]:
            d = haversine_km(capitals[a], capitals[b])
            out[(a, b)] = d
            out[(b, a)] = d
    return out


def loglog_regression(x, y) -> tuple[float, float, float]:
    """OLS of ln y on ln x; returns (exponent, intercept, r2).

    A flat y with zero residuals scores r2 = 1 (the horizontal line is an
    exact fit); any residual on a flat y scores 0.
    """
    xs = np.asarray(list(x), dtype=float)
    ys = np.asarray(list(y), dtype=float)
    if len(xs) != len(ys):
        raise ValueError("x and y lengths differ")
    if len(xs) < 3:
        raise ValueError(f"need >= 3 points, got {len(xs)}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log regression requires strictly positive values")
    lx = np.log(xs)
    ly = np.log(ys)
    design = np.column_stack([np.ones(len(lx)), lx])
    coef, _, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    r2 = _r2(ly, design @ coef, degenerate=1.0)
    return float(coef[1]), float(coef[0]), r2


def validate_external(
    estimates: Mapping[str, float], reference: Mapping[str, float]
) -> tuple[float, int]:
    """r2 of a linear fit of reference values on estimates, plus match count.

    Only countries present in both tables enter; others are simply not
    matched. A constant reference carries no explainable variance and
    scores 0 by convention. A value above sqrt(max float / n) / 4 raises
    ValueError: the r2 sums n squares of deviations of up to 2 |y|.
    """
    matched = sorted(set(estimates) & set(reference))
    if len(matched) < 3:
        raise ValueError(f"need >= 3 matched countries, got {len(matched)}")
    xs = np.array([estimates[c] for c in matched], dtype=float)
    ys = np.array([reference[c] for c in matched], dtype=float)
    top, limit = float(np.abs(ys).max()), math.sqrt(np.finfo(float).max / len(ys)) / 4
    if top > limit:
        raise ValueError(f"reference value {top:.6g} would overflow the r2 (limit {limit:.6g} for {len(ys)} countries)")
    design = np.column_stack([np.ones(len(xs)), xs])
    if np.linalg.matrix_rank(design) < 2:
        # constant estimates: only the mean is fittable
        coef = np.array([float(ys.mean()), 0.0])
    else:
        coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    r2 = _r2(ys, design @ coef, degenerate=0.0)
    return r2, len(matched)


# Ratio between consecutive bin edges of log_binned_density.
_LOG_BIN_BASE = 2.0


def log_binned_density(samples: Sequence[float] | np.ndarray) -> tuple[list[float], list[float]]:
    """Geometric-bin density estimate of a positive sample distribution.

    Bin edges are powers of _LOG_BIN_BASE spanning the sample range; returns
    bin centers (geometric mean of edges) and densities (count / n / width)
    for nonempty bins. Used as an independent cross-check on power-law fits.
    """
    xs = np.asarray(samples, dtype=np.float64)
    xs = xs[xs > 0]
    if len(xs) < 2:
        raise ValueError(f"need >= 2 positive samples, got {len(xs)}")
    lo, hi = float(xs.min()), float(xs.max())
    if lo == hi:
        raise ValueError("all samples identical: no bins")
    k_lo = math.floor(math.log(lo, _LOG_BIN_BASE))
    k_hi = math.ceil(math.log(hi, _LOG_BIN_BASE))
    edges = [_LOG_BIN_BASE**k for k in range(k_lo, k_hi + 1)]
    if edges[-1] <= hi:  # guard against log rounding at the top edge
        edges.append(edges[-1] * _LOG_BIN_BASE)
    # Sample x falls in bin b with edges[b] <= x < edges[b + 1]; the lowest bin also takes an x below edges[0].
    counts = np.bincount(np.searchsorted(edges[1:], xs, side="right"), minlength=len(edges) - 1).tolist()
    centers: list[float] = []
    densities: list[float] = []
    n = len(xs)
    for i, c in enumerate(counts):
        if c == 0:
            continue
        width = edges[i + 1] - edges[i]
        centers.append(math.sqrt(edges[i] * edges[i + 1]))
        densities.append(c / (n * width))
    return centers, densities


def binned_powerlaw_check(samples: Sequence[float] | np.ndarray) -> tuple[float, float, float]:
    """Log-binned OLS estimate of a power-law exponent: returns (beta, intercept, r2).

    The density of a power law with exponent beta falls as x^-beta, so the
    fitted slope negated estimates beta. Coarser than the MLE; meant as a
    sanity cross-check, not the primary estimator.
    """
    centers, densities = log_binned_density(samples)
    if len(centers) < 3:
        raise ValueError(f"need >= 3 nonempty bins, got {len(centers)}")
    slope, intercept, r2 = loglog_regression(centers, densities)
    return -slope, intercept, r2
