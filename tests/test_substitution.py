"""Substitution rules and their incidence matrices, reading orders, and the
successor bijection on the ordered diagram."""

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import substitution as sb
from bratteli.specfile import parse_spec


# -- matrices ----------------------------------------------------------------

def test_fibonacci_matrix():
    m = sb.substitution_matrix(sb.fibonacci())
    assert np.array_equal(m.to_dense(), [[1.0, 1.0], [1.0, 0.0]])


def test_identity_substitution():
    m = sb.substitution_matrix(sb.from_strings({"a": "a", "b": "b"}))
    assert np.array_equal(m.to_dense(), np.eye(2))


def test_odometer_matrix():
    m = sb.substitution_matrix(sb.odometer(3))
    assert m.triplets() == [(0, 0, 3)]


def test_drunkard_band_rows():
    m = sb.substitution_matrix(sb.drunkard_walk(), dg.Window(-10, 10, 2))
    assert m.multiplicity(0, -2) == 1
    assert m.multiplicity(0, 0) == 2
    assert m.multiplicity(0, 2) == 1
    assert m.row_sum_claim == m.col_sum_claim == 4
    # only the two edge letters lose a neighbour to the window
    edges = [False] + [True] * 9 + [False]
    assert m.interior_rows.tolist() == m.interior_cols.tolist() == edges


def test_nat_length_two_matrix():
    m = sb.substitution_matrix(sb.nat_length_two(), dg.Window(0, 8))
    assert m.multiplicity(0, 0) == 1 and m.multiplicity(0, 1) == 1
    assert m.multiplicity(1, 0) == 1 and m.multiplicity(1, 2) == 1
    assert m.multiplicity(5, 3) == 1 and m.multiplicity(5, 6) == 1
    # rows whose image leaves the window are not interior
    interior = m.interior_rows
    assert not interior[-1] and interior[0]


def test_band_substitution_needs_window():
    with pytest.raises(dg.WindowMismatch):
        sb.substitution_matrix(sb.drunkard_walk())


def test_empty_image_rejected():
    with pytest.raises(sb.EmptyImage):
        sb.from_strings({"a": ""})
    with pytest.raises(KeyError):
        sb.from_strings({"a": "ax"})


# -- constant length ---------------------------------------------------------

@pytest.mark.parametrize("rule,expect", [
    (sb.drunkard_walk(), (True, 4)),
    (sb.fibonacci(), (False, None)),
    (sb.nat_length_two(), (True, 2)),
    (sb.odometer(2), (True, 2)),
])
def test_constant_length(rule, expect):
    assert sb.constant_length(rule) == expect


# -- reading order -----------------------------------------------------------

def test_reading_order_fibonacci():
    s = sb.fibonacci()
    m = sb.substitution_matrix(s)
    d, order = dg.stationary_diagram(m, 1), sb.reading_order(s, m)
    assert order.order_at(d, 0, 0) == ((0, 0), (1, 0))   # a reads "ab"
    assert order.order_at(d, 0, 1) == ((0, 0),)          # b reads "a"


def test_reading_order_differs_from_natural():
    s = sb.from_strings({"a": "ba", "b": "a"})
    m = sb.substitution_matrix(s)
    d, order = dg.stationary_diagram(m, 1), sb.reading_order(s, m)
    assert order.order_at(d, 0, 0) == ((1, 0), (0, 0))


def test_reading_order_repeated_letter_ranks():
    s = sb.odometer(2)
    m = sb.substitution_matrix(s)
    d, order = dg.stationary_diagram(m, 1), sb.reading_order(s, m)
    assert order.order_at(d, 0, 0) == ((0, 0), (0, 1))


def reading_spec(name, depth, window=None):
    """The stationary diagram and reading order that a spec with a named
    substitution and ``"order": "reading"`` builds."""
    doc = {"substitution": {"name": name}, "depth": depth,
           "order": "reading"}
    if window is not None:
        doc["window"] = window
    spec = parse_spec(doc)
    return spec.diagram, spec.order


def test_reading_order_spec_fibonacci():
    d, order = reading_spec("fibonacci", depth=4)
    assert d.stationary and d.depth == 4
    assert len(order.order_at(d, 2, 0)) == 2
    dg.check_order(d, order)


def test_reading_order_spec_band():
    d, order = reading_spec("drunkard_walk", depth=2, window=[-8, 8, 2])
    # interior vertex: 4 ordered incoming edges read off (n-2) n n (n+2)
    assert order.order_at(d, 0, 0) == ((-2, 0), (0, 0), (0, 1), (2, 0))


# -- successor bijection -----------------------------------------------------

def test_successor_bijection_on_fibonacci_towers():
    """The successor maps non-maximal depth-3 paths bijectively onto the
    non-minimal ones, tower by tower."""
    d, order = reading_spec("fibonacci", depth=3)
    for v in (0, 1):
        paths = dg.enumerate_cylinders(d, (3, v))
        succ = {p.edges: dg.vershik_successor(d, order, p) for p in paths}
        non_max = [p for p in paths if succ[p.edges] is not None]
        assert len(non_max) == len(paths) - 1     # unique maximal path
        images = {succ[p.edges].edges for p in non_max}
        assert len(images) == len(non_max)        # injective
        minimal = dg.minimal_path(d, order, (3, v))
        assert minimal.edges not in images        # onto the non-minimal


def test_orbit_length_equals_height():
    d, order = reading_spec("fibonacci", depth=5)
    h5 = dg.heights(d, 5)
    for v in (0, 1):
        start = dg.minimal_path(d, order, (5, v))
        orbit = dg.vershik_orbit(d, order, start)
        assert len(orbit) == h5[v]


def test_reading_order_orbits_cover_towers_with_parallel_edges():
    """The drunkard walk's reading order holds each doubled n -> n edge as
    two ranks.  From every top vertex's minimal path the orbit visits each
    path of the tower once, in as many steps as the vertex's height."""
    d, order = reading_spec("drunkard_walk", depth=3, window=[-8, 8, 2])
    assert order.perms[0] is not None
    for v, h in zip(d.vertices(3), dg.heights(d, 3)):
        orbit = dg.vershik_orbit(d, order, dg.minimal_path(d, order, (3, v)))
        assert len(orbit) == h
        assert {p.edges for p in orbit} == {
            p.edges for p in dg.enumerate_cylinders(d, (3, v))}
