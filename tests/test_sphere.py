"""Great-circle geometry: closed-form anchors, symmetry, centers of mass."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoflow.sphere import (
    EARTH_RADIUS_KM,
    haversine_km,
    haversine_many,
    normalize_lon,
)
from helpers import DegenerateCenterError, center_of_mass, from_unit_vector, to_unit_vector

HALF_TURN_KM = math.pi * EARTH_RADIUS_KM  # antipodal distance
ONE_DEGREE_KM = HALF_TURN_KM / 180.0  # meridian arc per degree

lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lons = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.tuples(lats, lons)


def test_pinned_radius():
    assert EARTH_RADIUS_KM == 6371.0088


def test_one_degree_meridian_arc():
    assert haversine_km((0.0, 0.0), (0.0, 1.0)) == pytest.approx(ONE_DEGREE_KM, abs=1e-9)
    assert haversine_km((0.0, 0.0), (1.0, 0.0)) == pytest.approx(ONE_DEGREE_KM, abs=1e-9)
    assert ONE_DEGREE_KM == pytest.approx(111.1950802335329, abs=1e-12)


def test_antipodal_distance():
    assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(HALF_TURN_KM, abs=1e-9)
    assert haversine_km((90.0, 0.0), (-90.0, 0.0)) == pytest.approx(HALF_TURN_KM, abs=1e-9)
    assert HALF_TURN_KM == pytest.approx(20015.114442035923, abs=1e-12)


def test_quarter_turn():
    assert haversine_km((0.0, 0.0), (0.0, 90.0)) == pytest.approx(HALF_TURN_KM / 2, abs=1e-9)
    assert haversine_km((0.0, 0.0), (90.0, 0.0)) == pytest.approx(HALF_TURN_KM / 2, abs=1e-9)


def test_small_angle_matches_planar_limit():
    # 1 arc-second along the equator: spherical and planar agree to ~nm scale
    d = haversine_km((0.0, 0.0), (0.0, 1.0 / 3600.0))
    assert d == pytest.approx(ONE_DEGREE_KM / 3600.0, rel=1e-9)


@given(points)
def test_zero_distance_for_identical_points(p):
    assert haversine_km(p, p) == 0.0


@given(points, points)
def test_symmetry_and_range(p, q):
    d_pq = haversine_km(p, q)
    d_qp = haversine_km(q, p)
    assert d_pq == d_qp
    assert 0.0 <= d_pq <= HALF_TURN_KM + 1e-9


@given(points)
def test_longitude_is_irrelevant_at_the_poles(p):
    lat, lon = p
    assert haversine_km((90.0, lon), (90.0, 0.0)) == pytest.approx(0.0, abs=1e-9)


def test_normalize_lon_wraps_to_half_open_range():
    assert normalize_lon(180.0) == 180.0
    assert normalize_lon(-180.0) == 180.0
    assert normalize_lon(190.0) == -170.0
    assert normalize_lon(-190.0) == 170.0
    assert normalize_lon(370.0) == 10.0
    assert normalize_lon(540.0) == 180.0
    assert normalize_lon(0.0) == 0.0


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_normalize_lon_idempotent_and_canonical(lon):
    wrapped = normalize_lon(lon)
    assert -180.0 < wrapped <= 180.0
    assert normalize_lon(wrapped) == wrapped


@given(points)
def test_unit_vector_round_trip(p):
    lat, lon = p
    x, y, z = to_unit_vector(lat, lon)
    assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-12)
    lat2, lon2 = from_unit_vector(x, y, z)
    # compare as points on the sphere (longitude is degenerate at the poles)
    assert haversine_km((lat, lon), (lat2, lon2)) == pytest.approx(0.0, abs=1e-6)


def test_center_of_single_point():
    assert center_of_mass([(12.5, 33.25)]) == pytest.approx((12.5, 33.25), abs=1e-12)


def test_center_of_equatorial_pair_is_midpoint():
    lat, lon = center_of_mass([(0.0, 10.0), (0.0, 20.0)])
    assert lat == pytest.approx(0.0, abs=1e-12)
    assert lon == pytest.approx(15.0, abs=1e-9)


def test_center_of_symmetric_meridian_pair():
    lat, lon = center_of_mass([(30.0, 0.0), (-30.0, 0.0)])
    assert (lat, lon) == (pytest.approx(0.0, abs=1e-9), pytest.approx(0.0, abs=1e-9))


def test_center_is_normalized_vector_mean():
    # independent computation straight from the definition
    pts = [(48.8566, 2.3522), (52.52, 13.405), (40.4168, -3.7038), (59.9139, 10.7522)]
    vecs = np.array([to_unit_vector(lat, lon) for lat, lon in pts])
    mean = vecs.mean(axis=0)
    mean /= np.linalg.norm(mean)
    want_lat = math.degrees(math.asin(mean[2]))
    want_lon = math.degrees(math.atan2(mean[1], mean[0]))
    got = center_of_mass(pts)
    assert got == (pytest.approx(want_lat, abs=1e-9), pytest.approx(want_lon, abs=1e-9))


def test_center_minimizes_chord_cost():
    """The normalized 3-D mean minimizes the sum of squared chord lengths."""
    pts = [(10.0, 20.0), (35.0, -40.0), (-5.0, 60.0), (50.0, 10.0), (0.0, 0.0)]
    c_lat, c_lon = center_of_mass(pts)

    def chord_cost(lat, lon):
        c = np.array(to_unit_vector(lat, lon))
        return sum(float(np.sum((np.array(to_unit_vector(a, b)) - c) ** 2)) for a, b in pts)

    base = chord_cost(c_lat, c_lon)
    for dlat in (-0.05, 0.0, 0.05):
        for dlon in (-0.05, 0.0, 0.05):
            assert base <= chord_cost(c_lat + dlat, c_lon + dlon) + 1e-12


def test_center_of_antipodal_pair_is_degenerate():
    with pytest.raises(DegenerateCenterError):
        center_of_mass([(0.0, 0.0), (0.0, 180.0)])
    with pytest.raises(DegenerateCenterError):
        center_of_mass([(90.0, 0.0), (-90.0, 0.0)])


def test_array_haversine_is_bit_for_bit_the_scalar_one():
    """haversine_many mixes numpy and libm calls; numpy may pick other SIMD loops elsewhere, so check its bits."""
    rng = np.random.default_rng(20131104)
    n = 120_000
    lat1, lon1 = rng.uniform(-90.0, 90.0, n), rng.uniform(-180.0, 180.0, n)
    lat2, lon2 = rng.uniform(-90.0, 90.0, n), rng.uniform(-180.0, 180.0, n)
    near = slice(0, 30_000)  # neighbours, as consecutive events mostly are
    lat2[near] = np.clip(lat1[near] + rng.normal(0.0, 0.05, 30_000), -90.0, 90.0)
    lon2[near] = np.clip(lon1[near] + rng.normal(0.0, 0.05, 30_000), -180.0, 180.0)
    identical = slice(30_000, 35_000)
    lat2[identical], lon2[identical] = lat1[identical], lon1[identical]
    antipodes = slice(35_000, 45_000)  # near-antipodes, where the arcsine argument reaches 1
    lat2[antipodes] = -lat1[antipodes] + rng.normal(0.0, 1e-7, 10_000)
    lon2[antipodes] = np.where(lon1[antipodes] > 0, lon1[antipodes] - 180.0, lon1[antipodes] + 180.0)
    poles = slice(45_000, 50_000)
    lat1[poles] = rng.choice([90.0, -90.0], 5_000)
    seam = slice(50_000, 60_000)  # pairs straddling the +-180 meridian
    lon1[seam] = rng.choice([180.0, -180.0, 179.9999, -179.9999], 10_000)
    lon2[seam] = rng.choice([180.0, -180.0, 179.99, -179.99], 10_000)
    got = haversine_many(lat1, lon1, lat2, lon2)
    want = np.array([haversine_km(a, b) for a, b in zip(zip(lat1.tolist(), lon1.tolist()), zip(lat2.tolist(), lon2.tolist()))])
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, [(lat1[i], lon1[i], lat2[i], lon2[i], got[i], want[i]) for i in differ[:5]]
    assert haversine_many(*(np.empty(0),) * 4).shape == (0,)
