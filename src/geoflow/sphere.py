"""Great-circle geometry on the spherical Earth model: the Earth radius,
longitude wrapping, and haversine distances, of one pair or of arrays.

All distances use the IUGG mean Earth radius (6371.0088 km). Coordinates are
(latitude, longitude) pairs in degrees; longitude is normalized to (-180, 180].
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

EARTH_RADIUS_KM = 6371.0088
MAX_DISTANCE_KM = 2.0 * EARTH_RADIUS_KM * math.asin(1.0)  # haversine_km of antipodes: no distance is longer


def normalize_lon(lon: float) -> float:
    """Wrap any longitude into the canonical (-180, 180] range."""
    if -180.0 < lon <= 180.0:
        return lon  # already canonical; keep the exact value
    wrapped = math.fmod(lon + 180.0, 360.0)
    if wrapped < 0.0:
        wrapped += 360.0
    # wrapped == 0 corresponds to the -180/180 seam; canonical form is +180
    return wrapped - 180.0 if wrapped != 0.0 else 180.0


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in kilometers between two (lat, lon) points.

    Symmetric in its arguments and exactly zero for identical points.
    """
    lat1, lon1 = a
    lat2, lon2 = b
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    # Clamp against rounding pushing the argument above 1 for near-antipodes.
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def haversine_many(lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray) -> np.ndarray:
    """haversine_km of each pair of points, bit for bit.

    Radians, sines, cosines, products, sums and square roots are array operations, rounded as
    the scalar ones are; the squares (libm `pow`) and the arcsine (numpy's differs) stay scalar.
    """
    n = len(lat1)  # memoryview hands each value to the scalar calls as a Python float, building no list
    h = np.fromiter(map(pow, memoryview(np.sin(np.radians(lat2 - lat1) / 2.0)), repeat(2)), np.float64, n)
    sin2_dlam = np.fromiter(map(pow, memoryview(np.sin(np.radians(lon2 - lon1) / 2.0)), repeat(2)), np.float64, n)
    h += np.cos(np.radians(lat1)) * np.cos(np.radians(lat2)) * sin2_dlam
    return 2.0 * EARTH_RADIUS_KM * np.fromiter(map(math.asin, memoryview(np.minimum(1.0, np.sqrt(h)))), np.float64, n)
