"""Spherical-earth geodesy: great-circle distance, initial bearing, and the
inverse destination problem. Earth modeled as a sphere of radius 6371 km,
plenty for the km-scale association distances used here.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DegenerateGeometry

if TYPE_CHECKING:
    import numpy as np

EARTH_RADIUS_KM = 6371.0

Point = tuple[float, float]  # (lat, lon) in degrees


def haversine_km(a: Point, b: Point) -> float:
    """Great-circle distance between two (lat, lon) points in km.

    Near the antipode ``h`` can round one ulp above 1; it is clamped, so the
    distance there is half the circumference instead of a domain error.
    """
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    h = min(h, 1.0)
    return EARTH_RADIUS_KM * 2.0 * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))


def distances_km(lat, lon, site_lat, site_lon) -> np.ndarray:
    """Matrix of ``haversine_km`` distances, events (rows) by sites (columns),
    from 1-d coordinate arrays in degrees.

    Same formula and clamp as ``haversine_km``, but numpy's ``sin``, ``cos``
    and ``arctan2`` may differ from ``math``'s in the last ulps, so these
    values only prune candidates; no caller writes or compares them.
    """
    import numpy as np  # only association needs it, so filtering starts without numpy

    lat1 = np.radians(np.asarray(lat, dtype=float))[:, None]
    lon1 = np.radians(np.asarray(lon, dtype=float))[:, None]
    lat2 = np.radians(np.asarray(site_lat, dtype=float))[None, :]
    lon2 = np.radians(np.asarray(site_lon, dtype=float))[None, :]
    h = np.sin((lat2 - lat1) / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    np.minimum(h, 1.0, out=h)
    return EARTH_RADIUS_KM * 2.0 * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))


def initial_bearing_deg(frm: Point, to: Point) -> float:
    """Initial great-circle bearing from ``frm`` to ``to``, degrees clockwise
    from true north in [0, 360).

    The coordinate differences are taken in degrees before conversion, and
    the north component is written as
    ``sin dlat + 2 sin lat1 cos lat2 sin^2(dlon / 2)``, which unlike the
    textbook ``cos lat1 sin lat2 - sin lat1 cos lat2 cos dlon`` does not
    cancel, so points one ulp apart still get the right bearing.

    Raises ``DegenerateGeometry`` where no bearing is defined: from a pole,
    between exact antipodes, and when both components of the direction are
    zero, for identical points and for points so close that both components
    underflow, which off the poles needs both coordinate differences to be
    subnormal (below ``sys.float_info.min``), e.g. ``(0, 0) -> (0, 5e-324)``.
    """
    cos_lat2 = math.cos(math.radians(to[0]))
    dlat = math.radians(to[0] - frm[0])
    dlon = math.radians(to[1] - frm[1])
    half = math.sin(dlon / 2.0)
    y = math.sin(dlon) * cos_lat2
    x = math.sin(dlat) + 2.0 * math.sin(math.radians(frm[0])) * cos_lat2 * (half * half)
    antipodal = to[0] == -frm[0] and (to[1] - frm[1]) % 360.0 == 180.0
    if abs(frm[0]) == 90.0 or antipodal or (x == 0.0 and y == 0.0):
        raise DegenerateGeometry(f"no defined bearing from {frm} to {to}")
    return math.degrees(math.atan2(y, x)) % 360.0


def angle_offset_deg(azimuth_deg: float, bearing_deg: float) -> float:
    """Minimal absolute angular difference between two compass angles, in [0, 180]."""
    diff = abs(azimuth_deg - bearing_deg) % 360.0
    return 360.0 - diff if diff > 180.0 else diff


def destination_point(origin: Point, bearing_deg: float, distance_km: float) -> Point:
    """Point reached travelling ``distance_km`` along ``bearing_deg`` from ``origin``."""
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing_deg)
    lat1, lon1 = math.radians(origin[0]), math.radians(origin[1])
    lat2 = math.asin(
        math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(theta)
    )
    lon2 = lon1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(lat1),
        math.cos(delta) - math.sin(lat1) * math.sin(lat2),
    )
    lon2_deg = (math.degrees(lon2) + 180.0) % 360.0 - 180.0
    return math.degrees(lat2), lon2_deg
