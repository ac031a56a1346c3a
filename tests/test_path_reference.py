"""The path layer's block reader, decoder and edge resolver against the
per-row arrays they replaced.

``order_at``, ``minimal_path`` and ``vershik_successor`` read a target's
incoming edges as one block of natural positions, decoded one position at a
time; ``path_in_diagram``, the successor's check and ``cylinder_mass`` find a
path's edges through one resolver.  The forms below are the definitions they
replaced, kept as references.  On the ten seeded random systems (at depth 5,
so that every tower is walked in about a second) with random per-level
orders, the reading orders of ``nat_length_two`` and of the k=3
odometer, a reversed block of [[1, 2], [1, 1]] and the nonstationary example
spec, both must give equal orders, minimal paths, successors of every path
of every tower, orbits, membership answers and cylinder masses, and the
same error kind and text on every refusal the path tests exercise.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import markov as mk
from bratteli import measures as ms
from bratteli import specfile as sf
from bratteli import substitution as sb

from conftest import random_system

SPECS = Path(__file__).resolve().parent.parent / "examples_specs"


# -- reference forms ----------------------------------------------------------------

def ref_incoming(d, order, level, target):
    if not 0 <= level < d.depth:
        raise dg.CutsOutOfRange(f"edge level {level} outside 0..{d.depth - 1}")
    m = d.F(level)
    i = m.row_window.position(target)
    lo, hi = m.csr.indptr[i:i + 2].tolist()
    starts = m.edge_starts[lo:hi + 1]
    perm = order.perms[0 if order.stationary else level]
    seq = None if perm is None else perm[starts[0]:starts[-1]] - starts[0]
    return m, lo, starts - starts[0], seq


def ref_pairs(m, lo, starts, positions):
    k = np.searchsorted(starts, positions, side="right") - 1
    src = m.sources
    return list(zip(map(src.__getitem__, m.csr.indices[lo + k].tolist()),
                    (positions - starts[k]).tolist()))


def ref_order_at(order, d, level, target):
    m, lo, starts, seq = ref_incoming(d, order, level, target)
    count = int(starts[-1])
    if count > dg.DEFAULT_PATH_CAP:
        raise dg.TooManyPaths(dg.DEFAULT_PATH_CAP, count)
    return tuple(ref_pairs(m, lo, starts,
                           np.arange(count) if seq is None else seq))


def ref_minimal_path(d, order, vertex):
    level, v = dg._vertex(d, vertex)
    edges = []
    cur = v
    for lvl in range(level - 1, -1, -1):
        m, lo, starts, seq = ref_incoming(d, order, lvl, cur)
        (src, rank), = ref_pairs(m, lo, starts,
                                 np.arange(1) if seq is None else seq[:1])
        edges.append((lvl, src, cur, rank))
        cur = src
    return dg.FinitePath(tuple(reversed(edges)),
                         start=(0, v) if not edges else None)


def ref_multiplicity(m, v, w):
    k = m.edge_index(v, w)
    return int(m.csr.mult[k]) if k >= 0 else 0


def ref_successor(d, order, p):
    for e in p.edges:
        lvl, src, tgt, rank = e
        if not (0 <= lvl < d.depth
                and rank < ref_multiplicity(d.F(lvl), tgt, src)):
            raise ValueError(f"edge {e} is not in the diagram")
    for k, (lvl, src, tgt, rank) in enumerate(p.edges):
        m, lo, starts, seq = ref_incoming(d, order, lvl, tgt)
        pos = starts[m.edge_index(tgt, src) - lo] + rank
        place = pos if seq is None else int(np.flatnonzero(seq == pos)[0])
        if place + 1 < starts[-1]:
            nxt = place + 1 if seq is None else seq[place + 1]
            (nsrc, nrank), = ref_pairs(m, lo, starts, np.array([nxt]))
            prefix = ref_minimal_path(d, order, (lvl, nsrc)).edges
            return dg.FinitePath(prefix + ((lvl, nsrc, tgt, nrank),)
                                 + p.edges[k + 1:])
    return None


def ref_orbit(d, order, start):
    out = [start]
    while (nxt := ref_successor(d, order, out[-1])) is not None:
        out.append(nxt)
    return out


def ref_path_in_diagram(d, p):
    try:
        dg._vertex(d, p.initial)
        for (lvl, src, tgt, rank) in p.edges:
            dg._vertex(d, (lvl + 1, tgt))
            if rank >= ref_multiplicity(d.F(lvl), tgt, src):
                return False
    except (dg.CutsOutOfRange, KeyError):
        return False
    return True


def ref_cylinder_mass(system, p):
    d = system.diagram
    if not ref_path_in_diagram(d, p):
        raise mk.PathInvalid(f"path not in diagram: {p}")
    lvl0, v0 = p.initial
    if lvl0 != 0:
        raise mk.PathInvalid("cylinder masses are rooted at level 0")
    mass = float(system.q0[d.window(0).position(v0)])
    for (lvl, src, tgt, rank) in p.edges:
        k = d.F(lvl).edge_index(tgt, src)
        ranks = system.p_ranks[lvl]
        if ranks is not None:
            lo, hi = int(ranks[k]), int(ranks[k + 1])
            k = lo + rank if hi - lo > 1 else lo
        mass *= float(system.p_values[lvl][k])
    return mass


# -- inputs -------------------------------------------------------------------------

def _random_order(d, rng):
    """Per level: the natural order (one level in five) or each target's
    block shuffled."""
    perms = []
    for n in range(d.depth):
        m = d.F(n)
        bounds = m.edge_starts[m.csr.indptr].tolist()
        perms.append(None if rng.random() < 0.2 else np.concatenate(
            [lo + rng.permutation(hi - lo) for lo, hi in zip(bounds,
                                                             bounds[1:])]))
    return dg.EdgeOrder(tuple(perms))


def _reading(s, window, depth):
    m = sb.substitution_matrix(s, window)
    return dg.stationary_diagram(m, depth), sb.reading_order(s, m)


def _nonstationary():
    spec = sf.load_spec(str(SPECS / "nonstationary.json"))
    d = spec.diagram
    return d, spec.order, mk.markov_from_tail_invariant(
        d, ms.solve_tail_invariant(d))


def _cases():
    """name -> (diagram, order, Markov system or None)."""
    cases = {}
    for seed in range(10):
        system = random_system(seed, depth=5)
        d = system.diagram
        cases[f"random{seed}"] = (
            d, _random_order(d, np.random.default_rng(100 + seed)), system)
    cases["nat_length_two"] = _reading(sb.nat_length_two(),
                                       dg.Window(0, 8), 4) + (None,)
    cases["odometer3"] = _reading(sb.odometer(3), None, 5) + (None,)
    d = dg.stationary_diagram([[1, 2], [1, 1]], 4)
    cases["reversed_block"] = (d, dg.EdgeOrder((np.array([2, 1, 0, 3, 4]),)),
                               None)
    cases["nonstationary"] = _nonstationary()
    return cases


CASES = _cases()


def _same(got, want):
    """Equal, and equal in every printed digit and type of its ints."""
    assert got == want
    assert repr(got) == repr(want)


@functools.cache
def _towers(name):
    """(vertex, the reference orbit of its minimal path) for every vertex."""
    d, order, _ = CASES[name]
    return [((n, v), ref_orbit(d, order, ref_minimal_path(d, order, (n, v))))
            for n in range(d.depth + 1) for v in d.vertices(n)]


# -- comparisons --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
def test_order_and_minimal_paths_match_the_reference(name):
    d, order, _ = CASES[name]
    dg.check_order(d, order)
    for n in range(d.depth):
        for v in d.F(n).targets:
            _same(order.order_at(d, n, v), ref_order_at(order, d, n, v))
    for n in range(d.depth + 1):
        for v in d.vertices(n):
            _same(dg.minimal_path(d, order, (n, v)),
                  ref_minimal_path(d, order, (n, v)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_successors_and_orbits_match_the_reference(name):
    """The orbit is the successor applied to every path of the tower in
    turn, so equal orbits mean equal successors, the last one None."""
    d, order, _ = CASES[name]
    natural = dg.natural_order(d)
    for (n, v), tower in _towers(name):
        _same(dg.vershik_orbit(d, order, tower[0]), tower)
        assert dg.vershik_successor(d, order, tower[-1]) is None
        if n <= 3:
            _same(dg.enumerate_cylinders(d, (n, v)),
                  ref_orbit(d, natural, ref_minimal_path(d, natural, (n, v))))


def _variants(p):
    """Paths near p, most of them not in the diagram: each edge's rank
    raised by one or its target moved, one edge more, and the empty path
    at a level-0 vertex off the window (a path starts on level 0)."""
    yield p
    for k, (lvl, src, tgt, rank) in enumerate(p.edges):
        for e in ((lvl, src, tgt, rank + 1), (lvl, src, tgt + 1, rank)):
            yield dg.FinitePath(p.edges[:k] + (e,))
    lvl, v = p.terminal
    yield dg.FinitePath(p.edges + ((lvl, v, v, 0),))
    yield dg.FinitePath((), (0, p.initial[1] + 10**6))


@pytest.mark.parametrize("name", sorted(CASES))
def test_membership_and_cylinder_masses_match_the_reference(name):
    """Every tower path's mass, and on every 23rd path of a tower the
    membership of each variant and its mass or refusal."""
    d, order, system = CASES[name]
    for _, tower in _towers(name):
        if system is not None:
            for p in tower:
                assert (mk.cylinder_mass(system, p)
                        == ref_cylinder_mass(system, p)), p
        for q in (q for p in tower[::23] for q in _variants(p)):
            got = dg.path_in_diagram(d, q)
            assert got is ref_path_in_diagram(d, q), q
            if system is not None and got:
                assert (mk.cylinder_mass(system, q)
                        == ref_cylinder_mass(system, q)), q
            elif system is not None:
                _same_error(lambda: mk.cylinder_mass(system, q),
                            lambda: ref_cylinder_mass(system, q))


# -- refusals -----------------------------------------------------------------------

def _same_error(run, ref):
    with pytest.raises(Exception) as got:
        run()
    with pytest.raises(Exception) as want:
        ref()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


_TWO = dg.stationary_diagram([[2]], 2)
_THREE = dg.stationary_diagram([[2]], 3)
_UNIFORM = mk.explicit_system(
    dg.stationary_diagram([[1, 1], [1, 1]], 3), [0.5, 0.5],
    ({(w, v): 0.5 for w in (0, 1) for v in (0, 1)},) * 3)

_REFUSALS = {
    "successor: rank past the edges": lambda f: f["successor"](
        _TWO, dg.natural_order(_TWO),
        dg.FinitePath(((0, 0, 0, 0), (1, 0, 0, 3)))),
    "successor: target off its level": lambda f: f["successor"](
        _TWO, dg.natural_order(_TWO),
        dg.FinitePath(((0, 0, 0, 0), (1, 0, 1, 0)))),
    "successor: too deep": lambda f: f["successor"](
        _TWO, dg.natural_order(_TWO),
        dg.FinitePath(((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)))),
    "minimal path: level -1": lambda f: f["minimal"](
        _THREE, dg.natural_order(_THREE), (-1, 0)),
    "minimal path: level 4": lambda f: f["minimal"](
        _THREE, dg.natural_order(_THREE), (4, 0)),
    "minimal path: level 7": lambda f: f["minimal"](
        _THREE, dg.natural_order(_THREE), (7, 0)),
    "minimal path: vertex off its level": lambda f: f["minimal"](
        _THREE, dg.natural_order(_THREE), (2, 5)),
    "order: edge level -1": lambda f: f["order_at"](
        dg.natural_order(_THREE), _THREE, -1, 0),
    "order: edge level 3": lambda f: f["order_at"](
        dg.natural_order(_THREE), _THREE, 3, 0),
    "order: more edges than the cap": lambda f: f["order_at"](
        dg.natural_order(_HUGE), _HUGE, 0, 0),
    # refused when the path is built, before either mass function runs
    "cylinder: rooted above level 0": lambda f: f["mass"](
        _UNIFORM, dg.FinitePath(((1, 0, 0, 0),), start=(1, 0))),
    "cylinder: edge off the diagram": lambda f: f["mass"](
        _UNIFORM, dg.FinitePath(((0, 0, 0, 0), (1, 0, 0, 1)))),
    "cylinder: vertex off level 0": lambda f: f["mass"](
        _UNIFORM, dg.FinitePath((), start=(0, 2))),
}
_HUGE = dg.telescope(dg.stationary_diagram([[2 ** 60]], 2), (0, 2))
_NEW = {"successor": dg.vershik_successor, "minimal": dg.minimal_path,
        "order_at": lambda order, *a: order.order_at(*a),
        "mass": mk.cylinder_mass}
_REF = {"successor": ref_successor, "minimal": ref_minimal_path,
        "order_at": ref_order_at, "mass": ref_cylinder_mass}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusals_match_the_reference(case):
    _same_error(lambda: _REFUSALS[case](_NEW), lambda: _REFUSALS[case](_REF))
