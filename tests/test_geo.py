"""Geodesy: haversine distances against analytic arcs, bearings against an
independent vector-algebra oracle, offset wrapping, shift invariance.

The bearing oracle projects the chord ``n2 - n1`` between the two unit
position vectors onto the east and north unit vectors at the first point.
Each component of the chord comes from a half-angle difference identity
(``cos a - cos b = -2 sin((a+b)/2) sin((a-b)/2)`` and its sine twin), with
the differences taken in degrees before conversion and ``2 sin(h/2)``
evaluated as ``sin h / cos(h/2)`` so that a subnormal ``h`` is not halved.
Nothing is squared, so no component underflows, and points one ulp apart
keep their precision. It uses stdlib ``math`` only.
"""
import math
import sys

import pytest
from hypothesis import example, given, strategies as st

from eventcell.errors import DegenerateGeometry
from eventcell.geo import (
    EARTH_RADIUS_KM,
    angle_offset_deg,
    destination_point,
    haversine_km,
    initial_bearing_deg,
)

QUARTER = EARTH_RADIUS_KM * math.pi / 2.0


# Pairs whose great-circle distance has a closed form (same meridian, the
# equator, poles, antipodes).
ANALYTIC_PAIRS = [
    ((0.0, 0.0), (0.0, 90.0), QUARTER),
    ((0.0, 0.0), (90.0, 0.0), QUARTER),
    ((0.0, 0.0), (-90.0, 0.0), QUARTER),
    ((0.0, 0.0), (0.0, 180.0), 2 * QUARTER),
    ((20.0, 30.0), (-20.0, -150.0), 2 * QUARTER),  # antipodal
    ((10.0, 25.0), (30.0, 25.0), EARTH_RADIUS_KM * math.radians(20.0)),
    ((-45.0, -120.0), (45.0, -120.0), EARTH_RADIUS_KM * math.radians(90.0)),
    ((0.0, -10.0), (0.0, 35.0), EARTH_RADIUS_KM * math.radians(45.0)),
    ((36.7201, -4.4203), (36.7251, -4.4203), EARTH_RADIUS_KM * math.radians(0.005)),
    ((52.0, 7.0), (52.0, 7.0), 0.0),
]


@pytest.mark.parametrize("a,b,expected", ANALYTIC_PAIRS)
def test_haversine_analytic(a, b, expected):
    got = haversine_km(a, b)
    assert got == pytest.approx(expected, rel=1e-3, abs=1e-9)


def test_haversine_symmetric_and_zero():
    a, b = (36.72, -4.42), (40.0, 3.0)
    assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-12)
    assert haversine_km(a, a) == 0.0


def test_haversine_clamps_near_antipode():
    # h rounds to 1.0000000000000002 here; sqrt(1 - h) used to raise
    a, b = (3.362091034140363, 22.088831320216457), (-3.362091034140363, -157.91116867978354)
    assert haversine_km(a, b) == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-9)


def test_quarter_circumference_value():
    assert haversine_km((0, 0), (0, 90)) == pytest.approx(10007.543398, abs=1e-3)


def test_small_latitude_step():
    assert haversine_km((36.7201, -4.4203), (36.7251, -4.4203)) == pytest.approx(0.556, abs=5e-4)


# --- bearings ---------------------------------------------------------------

def _bearing_oracle(p1, p2):
    """Vector-algebra initial bearing: the chord from p1 to p2 on the unit
    sphere, projected onto the local east and north directions at p1."""
    (lat1, lon1), (lat2, lon2) = p1, p2
    phi1, lam1, phi2, lam2 = map(math.radians, (lat1, lon1, lat2, lon2))

    def chord(delta_deg):  # 2 sin(h / 2) for h = radians(delta_deg)
        h = math.radians(delta_deg)
        return math.sin(h) / math.cos(h / 2.0)

    c_phi, c_lam = chord(lat2 - lat1), chord(lon2 - lon1)
    m_phi, m_lam = (phi1 + phi2) / 2.0, (lam1 + lam2) / 2.0
    dcos_phi, dsin_phi = -math.sin(m_phi) * c_phi, math.cos(m_phi) * c_phi
    dcos_lam, dsin_lam = -math.sin(m_lam) * c_lam, math.cos(m_lam) * c_lam
    # n = (cos phi cos lam, cos phi sin lam, sin phi); ab - cd = a(b - d) + (a - c)d
    dx = math.cos(phi2) * dcos_lam + dcos_phi * math.cos(lam1)
    dy = math.cos(phi2) * dsin_lam + dcos_phi * math.sin(lam1)
    dz = dsin_phi
    east = -math.sin(lam1) * dx + math.cos(lam1) * dy
    north = -math.sin(phi1) * (math.cos(lam1) * dx + math.sin(lam1) * dy) + math.cos(phi1) * dz
    return math.degrees(math.atan2(east, north)) % 360.0


def test_bearing_cardinal():
    assert initial_bearing_deg((10.0, 5.0), (20.0, 5.0)) == pytest.approx(0.0, abs=1e-12)
    assert initial_bearing_deg((0.0, 0.0), (0.0, 10.0)) == pytest.approx(90.0, abs=1e-12)
    assert initial_bearing_deg((20.0, 5.0), (10.0, 5.0)) == pytest.approx(180.0, abs=1e-12)
    assert initial_bearing_deg((0.0, 10.0), (0.0, 0.0)) == pytest.approx(270.0, abs=1e-12)


def test_bearing_against_vector_oracle():
    value = initial_bearing_deg((36.72, -4.42), (36.73, -4.40))
    assert value == pytest.approx(58.037330528525, abs=1e-6)
    assert value == pytest.approx(_bearing_oracle((36.72, -4.42), (36.73, -4.40)), abs=0.01)


@given(
    lat1=st.floats(-80, 80), lon1=st.floats(-179, 179),
    lat2=st.floats(-80, 80), lon2=st.floats(-179, 179),
)
@example(lat1=0.0, lon1=0.0, lat2=0.0, lon2=7.07e-227)
@example(lat1=-80.0, lon1=2.0, lat2=-79.99999999999999, lon2=2.0)
@example(lat1=59.00849643441805, lon1=0.0, lat2=59.00849643441804, lon2=0.0)
@example(lat1=0.0, lon1=0.0, lat2=-5e-324, lon2=0.0)
@example(lat1=10.0, lon1=10.0, lat2=-10.0, lon2=-170.0)  # antipodes
@example(lat1=90.0, lon1=0.0, lat2=90.0, lon2=10.0)  # from a pole
def test_bearing_matches_oracle_everywhere(lat1, lon1, lat2, lon2):
    try:
        got = initial_bearing_deg((lat1, lon1), (lat2, lon2))
    except DegenerateGeometry:
        from_pole = abs(lat1) == 90.0
        antipodal = lat2 == -lat1 and abs(lon2 - lon1) == 180.0
        coincident = abs(lat2 - lat1) < sys.float_info.min and abs(lon2 - lon1) < sys.float_info.min
        assert from_pole or antipodal or coincident
        return
    want = _bearing_oracle((lat1, lon1), (lat2, lon2))
    diff = abs(got - want) % 360.0
    assert min(diff, 360.0 - diff) < 0.01


def test_bearing_degenerate():
    with pytest.raises(DegenerateGeometry):
        initial_bearing_deg((1.0, 2.0), (1.0, 2.0))
    with pytest.raises(DegenerateGeometry):
        initial_bearing_deg((0.0, 0.0), (0.0, 5e-324))
    for frm, to in [((10.0, 10.0), (-10.0, -170.0)), ((0.0, -180.0), (0.0, 0.0)),
                    ((90.0, 0.0), (90.0, 10.0)), ((-90.0, 0.0), (36.7, -4.4))]:
        with pytest.raises(DegenerateGeometry):
            initial_bearing_deg(frm, to)
    assert initial_bearing_deg((36.7, -4.4), (90.0, 0.0)) == pytest.approx(0.0, abs=1e-9)  # to a pole


def test_bearing_nearby_points():
    lat = 59.00849643441805
    assert initial_bearing_deg((lat, 0.0), (math.nextafter(lat, 0.0), 0.0)) == 180.0
    assert initial_bearing_deg((0.0, 0.0), (0.0, 7.07e-227)) == 90.0
    assert initial_bearing_deg((1.0, 1.0), (1.0, 1.0000000000000002)) == pytest.approx(90.0, abs=1e-6)


def test_offset_wraparound_exact():
    assert angle_offset_deg(350.0, 10.0) == 20.0
    assert angle_offset_deg(10.0, 350.0) == 20.0
    assert angle_offset_deg(0.0, 180.0) == 180.0
    assert angle_offset_deg(90.0, 90.0) == 0.0


# --- invariances ------------------------------------------------------------

def _shift_lon(lon, delta):
    return (lon + delta + 180.0) % 360.0 - 180.0


@given(
    lat1=st.floats(-80, 80), lon1=st.floats(-180, 180),
    lat2=st.floats(-80, 80), lon2=st.floats(-180, 180),
    delta=st.floats(0, 360),
)
def test_longitude_shift_invariance(lat1, lon1, lat2, lon2, delta):
    d1 = haversine_km((lat1, lon1), (lat2, lon2))
    d2 = haversine_km((lat1, _shift_lon(lon1, delta)), (lat2, _shift_lon(lon2, delta)))
    assert d1 == pytest.approx(d2, abs=1e-6)


@given(
    lat=st.floats(-70, 70), lon=st.floats(-180, 180),
    bearing=st.floats(0, 360), dist=st.floats(0.1, 500),
)
def test_destination_round_trip(lat, lon, bearing, dist):
    point = destination_point((lat, lon), bearing, dist)
    assert haversine_km((lat, lon), point) == pytest.approx(dist, rel=1e-9, abs=1e-9)
    back = initial_bearing_deg((lat, lon), point)
    diff = abs(back - bearing % 360.0) % 360.0
    assert min(diff, 360.0 - diff) < 1e-6
