"""Structural layer: windows, incidence matrices, validation, telescoping,
heights, cylinder enumeration, and the adic successor.

Claimed behaviour checked here:
    - validation rejects empty rows/columns and window mismatches, and
      stores levels equal in entries, masks and claims as one record
    - band rules materialize with truncation masks at the window edges
    - telescoping multiplies blocks in descending order (heights survive)
    - H^(n) counts paths exactly (integer arithmetic, no overflow)
    - every builder's arrays equal those the mapping reader makes from the
      same entries, and every row/column/sum query answers as that mapping
    - the successor visits a full odometer tower in binary-counter order
"""

import dataclasses
import functools
import re
import numpy as np
import pytest

from bratteli import cells as cl
from bratteli import diagram as dg
from bratteli import substitution as sb

from conftest import (ALL_ONES, DRUNKEN, FIB, allones_diagram, fib_diagram,
                      random_levels, random_system)


# -- windows -----------------------------------------------------------------

def test_window_vertices_step_two():
    w = dg.Window(-4, 4, 2)
    assert w.vertices == (-4, -2, 0, 2, 4)
    assert len(w) == 5
    assert 2 in w and 3 not in w and 6 not in w
    assert w.position(-4) == 0 and w.position(4) == 4


def test_window_vertices_exact_past_2_53():
    # the first vertex is found in integers: a float quotient rounds
    # 2**60 + 1 down to 2**60, outside the window
    w = dg.Window(2 ** 60 + 1, 2 ** 60 + 5)
    assert w.vertices == tuple(range(2 ** 60 + 1, 2 ** 60 + 6))
    assert all(v in w for v in w.vertices)
    assert dg.Window(2 ** 60 + 1, 2 ** 60 + 5, 2).vertices == (
        2 ** 60 + 2, 2 ** 60 + 4)


def test_window_position_outside_raises():
    with pytest.raises(KeyError):
        dg.Window(0, 3).position(7)


def test_window_empty_rejected():
    with pytest.raises(dg.WindowMismatch):
        dg.Window(5, 2)


@pytest.mark.parametrize("lo, hi, step", [(1, 1, 2), (-5, -4, 3),
                                          (2 ** 60 + 1, 2 ** 60 + 1, 2)])
def test_window_without_a_multiple_of_its_step_rejected(lo, hi, step):
    # past 2**53 a float quotient would find 2**60 in [2**60 + 1, 2**60 + 1]
    with pytest.raises(dg.WindowMismatch, match="holds no multiple"):
        dg.Window(lo, hi, step)
    assert len(dg.Window(lo, hi + 1, step)) == 1


def test_window_of_tuple():
    assert dg.window_of((0, 3)) == dg.Window(0, 3)
    assert dg.window_of(dg.Window(1, 2)) == dg.Window(1, 2)


# -- validation --------------------------------------------------------------

def test_allones_valid_stationary():
    d = allones_diagram(4)
    assert d.depth == 4
    assert d.stationary
    assert d.vertices(0) == (0, 1)


def test_stationarity_compares_levels_not_their_storage():
    # separately built copies of one level share no csr but are equal
    same = [dg.incidence_from_dense(k, FIB) for k in range(3)]
    assert dg.validate(same).stationary
    # float and int multiplicities give the same level
    assert dg.validate([dg.incidence_from_dense(0, [[1, 1], [1, 0]]),
                        dg.incidence_from_dense(1, [[1.0, 1.0], [1.0, 0.0]])
                        ]).stationary
    for other in ([[1, 1], [1, 1]], [[1, 1], [2, 0]], [[1, 0], [1, 1]]):
        assert not dg.validate([dg.incidence_from_dense(0, FIB),
                                dg.incidence_from_dense(1, other)]).stationary
    # the same arrays over another source window
    moved = dg.incidence_from_dense(0, FIB, col_window=dg.Window(10, 11))
    assert not dg.validate([moved, dg.incidence_from_dense(1, FIB)]
                           ).stationary


@pytest.mark.parametrize("change", [
    {"interior_rows": np.ones(21, dtype=bool)},
    {"interior_cols": np.ones(21, dtype=bool)},
    {"row_sum_claim": None}, {"col_sum_claim": 5}])
def test_levels_equal_in_entries_alone_stay_two_records(change):
    """Levels are one record only when their masks and claims agree too."""
    band = dg.band_matrix(dg.Window(-20, 20, 2), DRUNKEN)
    assert len(dg.validate([band, dataclasses.replace(band)]).levels) == 1
    d = dg.validate([band, dataclasses.replace(band, **change)])
    assert not d.stationary and len(d.levels) == 2


def test_zero_row_rejected():
    m = dg.incidence_from_dense(0, [[1, 0], [0, 0]])
    with pytest.raises(dg.ZeroRow) as exc:
        dg.validate([m])
    assert exc.value.level == 0
    assert exc.value.vertex == 1


def test_zero_column_rejected():
    m = dg.incidence_from_dense(0, [[1, 0], [1, 0]])
    with pytest.raises(dg.ZeroColumn) as exc:
        dg.validate([m])
    assert exc.value.vertex == 1


def test_window_chain_mismatch_rejected():
    m0 = dg.incidence_from_dense(0, [[1, 1], [1, 1]])
    m1 = dg.incidence_from_dense(1, [[1, 1, 1]], row_window=dg.Window(0, 0),
                                 col_window=dg.Window(0, 4, 2))
    with pytest.raises(dg.WindowMismatch, match=re.escape(
            "source window of level 1 ([0, 4]/2) differs from the target "
            "window of level 0 ([0, 1])")):
        dg.validate([m0, m1])


def test_entry_outside_source_window_is_infinite_row():
    with pytest.raises(dg.InfiniteRow):
        dg.incidence_from_entries(0, {(0, 0): 1, (1, 0): 1, (0, 5): 1},
                                  dg.Window(0, 1), dg.Window(0, 1))


def test_drunken_band_diagram_valid():
    d = dg.band_diagram(DRUNKEN, depth=3, window=dg.Window(-20, 20, 2))
    assert d.stationary
    m = d.F(0)
    # interior rows carry the full (1, 2, 1) profile, boundary rows are
    # clipped but still nonempty
    assert m.multiplicity(0, -2) == 1
    assert m.multiplicity(0, 0) == 2
    assert m.multiplicity(0, 2) == 1
    assert m.row_entries(-20) == [(-20, 2), (-18, 1)]
    interior = m.interior_rows
    assert not interior[0] and not interior[-1]
    assert interior[1:-1].all()


def test_band_window_too_small():
    with pytest.raises(dg.WindowMismatch):
        dg.band_matrix(dg.Window(0, 2, 2), DRUNKEN)


# -- telescoping -------------------------------------------------------------

def test_telescope_allones_pairs():
    d = allones_diagram(4)
    t = dg.telescope(d, (0, 2, 4))
    assert t.depth == 2
    assert np.array_equal(t.F(0).to_dense(), [[2.0, 2.0], [2.0, 2.0]])
    assert np.array_equal(t.F(1).to_dense(), [[2.0, 2.0], [2.0, 2.0]])


def test_telescope_fibonacci_square():
    d = fib_diagram(2)
    t = dg.telescope(d, (0, 2))
    assert np.array_equal(t.F(0).to_dense(), [[2.0, 1.0], [1.0, 1.0]])


def test_telescope_identity_cuts():
    d = fib_diagram(3)
    t = dg.telescope(d, (0, 1, 2, 3))
    for n in range(3):
        assert np.array_equal(t.F(n).to_dense(), d.F(n).to_dense())


def test_telescope_bad_cuts():
    d = allones_diagram(4)
    for cuts in ((1, 3), (0, 3, 2), (0, 9), (0,)):
        with pytest.raises(dg.CutsOutOfRange):
            dg.telescope(d, cuts)


def test_telescope_propagates_truncation():
    # a product row (column) is non-interior when it is clipped itself or
    # reaches a clipped row (column) through the other level
    d = dg.band_diagram(DRUNKEN, 3, dg.Window(-20, 20, 2))
    t = dg.telescope(d, (0, 2, 3))
    two, one = t.F(0), t.F(1)
    for m, clipped in ((two, {-20, -18, 18, 20}), (one, {-20, 20})):
        for mask, verts in ((m.interior_rows, m.targets),
                            (m.interior_cols, m.sources)):
            assert mask.dtype == bool and not mask.flags.writeable
            assert {v for v, ok in zip(verts, mask) if not ok} == clipped
    # a one-level block keeps its level's arrays
    assert one.interior_rows is d.F(2).interior_rows
    assert one.interior_cols is d.F(2).interior_cols
    assert two.row_sum_claim == two.col_sum_claim == 16
    assert not t.stationary


def test_stationary_levels_share_one_mask_pair():
    for d in (dg.band_diagram(DRUNKEN, 4, dg.Window(-20, 20, 2)),
              dg.stationary_diagram(sb.substitution_matrix(
                  sb.nat_length_two(), dg.Window(0, 12)), 4),
              dg.stationary_diagram(ALL_ONES, 4)):
        first = d.F(0)
        for m in map(d.F, range(1, d.depth)):
            assert m.interior_rows is first.interior_rows
            assert m.interior_cols is first.interior_cols


def test_stationary_diagram_holds_one_level_record():
    """Depth is a count: a million levels are one record, which F returns
    for every level; F indexes like a sequence of depth levels."""
    depth = 10 ** 6
    d = dg.stationary_diagram(ALL_ONES, depth)
    assert (d.depth, d.stationary, len(d.levels)) == (depth, True, 1)
    assert d.F(0) is d.F(depth - 1) is d.F(-depth) is d.levels[0]
    assert d.window(depth) == d.window(0) == dg.Window(0, 1)
    for n in (depth, -depth - 1):
        with pytest.raises(IndexError):
            d.F(n)


_BAD_LEVELS = {"zero row": [[1, 0], [0, 0]], "zero column": [[1, 0], [1, 0]],
               "wider than tall": [[1, 1, 1]]}


@pytest.mark.parametrize("depth", [1, 2, 5])
@pytest.mark.parametrize("case", sorted(_BAD_LEVELS))
def test_stationary_diagram_reports_what_validate_reports(case, depth):
    """The one level record is checked once, as level 0 and, when a level
    follows, against its own windows; the error is the one ``validate``
    gives on the level repeated depth times."""
    dense = _BAD_LEVELS[case]

    def outcome(build):
        try:
            d = build()
        except dg.DiagramError as e:
            return type(e), str(e), getattr(e, "level", None)
        return d.depth, d.stationary

    got = outcome(lambda: dg.stationary_diagram(dense, depth))
    assert got == outcome(lambda: dg.validate(
        [dg.incidence_from_dense(n, dense) for n in range(depth)]))
    if case != "wider than tall":
        assert got[0] is {"zero row": dg.ZeroRow,
                          "zero column": dg.ZeroColumn}[case]
        assert got[2] == 0
    else:
        assert got == ((1, True) if depth == 1 else (
            dg.WindowMismatch, "source window of level 1 ([0, 2]) differs "
            "from the target window of level 0 ([0, 0])", None))


def test_telescope_preserves_heights():
    d = fib_diagram(6)
    t = dg.telescope(d, (0, 2, 5, 6))
    assert dg.heights(t, 1) == dg.heights(d, 2)
    assert dg.heights(t, 2) == dg.heights(d, 5)
    assert dg.heights(t, 3) == dg.heights(d, 6)


# -- heights -----------------------------------------------------------------

def test_heights_level_zero_is_ones():
    assert dg.heights(fib_diagram(3), 0) == [1, 1]
    assert dg.heights(allones_diagram(3), 0) == [1, 1]


def test_heights_allones_powers_of_two():
    d = allones_diagram(5)
    assert dg.heights(d, 3) == [8, 8]
    assert [dg.heights(d, n) for n in range(4)] == [
        [1, 1], [2, 2], [4, 4], [8, 8]]


def test_heights_fibonacci():
    d = fib_diagram(3)
    assert dg.heights(d, 1) == [2, 1]
    assert dg.heights(d, 2) == [3, 2]
    assert dg.heights(d, 3) == [5, 3]


def test_heights_satisfy_recursion():
    """F_n H^(n) = H^(n+1) exactly, on arbitrary valid dense chains."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.lists(
        st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=4),
                 min_size=2, max_size=4),
        min_size=1, max_size=4))
    def check(levels):
        mats = []
        prev_rows = None
        for n, rows in enumerate(levels):
            ncols = prev_rows if prev_rows is not None else len(rows[0])
            dense = [(r + [1] * ncols)[:ncols] for r in rows]
            # guarantee no empty rows/columns
            for i, r in enumerate(dense):
                if sum(r) == 0:
                    r[i % ncols] = 1
            for j in range(ncols):
                if sum(r[j] for r in dense) == 0:
                    dense[j % len(dense)][j] = 1
            mats.append(dg.incidence_from_dense(n, dense))
            prev_rows = len(dense)
        d = dg.validate(mats)
        hs = [dg.heights(d, n) for n in range(d.depth + 1)]
        for n in range(d.depth):
            F = d.F(n).to_dense().astype(np.int64).astype(object)
            assert list(F @ np.array(hs[n], dtype=object)) == hs[n + 1]

    check()


def test_streamed_heights_match_the_integer_recursion():
    """all_heights and heights give H^(n+1)_v = sum_w f_vw H^(n)_w, read
    entry by entry in plain Python ints, on seeded non-stationary diagrams
    and on stationary ones whose heights pass 2^64."""
    cases = [random_system(seed, depth=6, min_m=1, max_m=9).diagram
             for seed in range(8)]
    cases += [dg.stationary_diagram([[2 ** 40, 3], [1, 2 ** 33]], 5),
              fib_diagram(120)]
    for d in cases:
        want = [[1] * len(d.window(0))]
        for n in range(d.depth):
            F, below = d.F(n), dict(zip(d.vertices(n), want[-1]))
            want.append([sum(k * below[w] for w, k in F.row_entries(v))
                         for v in F.targets])
        assert [h.tolist() for h in dg.all_heights(d)] == want
        assert [dg.heights(d, n) for n in range(d.depth + 1)] == want
    assert min(max(dg.heights(d, d.depth)) for d in cases[-2:]) > 2 ** 64


def test_row_and_col_sums_exact_past_int64():
    m = dg.incidence_from_dense(0, [[2 ** 62, 2 ** 62, 3],
                                    [2 ** 63 - 1, 1, 0]])
    assert m.csr.mult.dtype == np.int64
    assert m.row_sums().tolist() == [2 ** 63 + 3, 2 ** 63]
    assert m.col_sums().tolist() == [2 ** 62 + 2 ** 63 - 1, 2 ** 62 + 1, 3]
    wide = dg.incidence_from_dense(0, [[2 ** 70, 1], [2 ** 70, 2 ** 64]])
    assert wide.row_sums().tolist() == [2 ** 70 + 1, 2 ** 70 + 2 ** 64]
    assert wide.col_sums().tolist() == [2 ** 71, 2 ** 64 + 1]
    for sums in (m.row_sums(), m.col_sums(), wide.row_sums()):
        assert all(type(x) is int for x in sums.tolist())


def _random_level(rng, n_t, n_s):
    """A level with random entries, some rows and columns left empty."""
    flat = rng.choice(n_t * n_s, size=rng.integers(1, n_t * n_s + 1),
                      replace=False)
    return dg.incidence_from_entries(0, {(int(f // n_s), int(f % n_s)): 1
                                         for f in flat},
                                     dg.Window(0, n_t - 1),
                                     dg.Window(0, n_s - 1))


def test_totals_match_bincount_bit_for_bit():
    """``totals`` adds each vertex's entries one by one in CSR order, the
    order of np.bincount.  Induced Markov systems renormalize clipped rows
    with these sums, so a numpy whose ufunc.at reordered them would move
    printed values; this fails first.  Per-source sums see repeated,
    unsorted indices, and the values span 300 decades of both signs."""
    rng = np.random.default_rng(16)
    for _ in range(200):
        m = _random_level(rng, *(int(x) for x in rng.integers(1, 40, 2)))
        c = m.csr
        k = len(c.rows)
        vals = rng.standard_normal(k) * 10.0 ** rng.uniform(-150, 150, k)
        vals[rng.random(k) < 0.05] = -0.0
        for by_source, idx in ((False, c.rows), (True, c.indices)):
            size = len(m.sources if by_source else m.targets)
            got = m.totals(vals, by_source=by_source)
            want = np.bincount(idx, weights=vals, minlength=size)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


def test_totals_exact_on_python_ints():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = _random_level(rng, *(int(x) for x in rng.integers(1, 12, 2)))
        c = m.csr
        vals = np.array([2 ** 64 + int(x) for x in
                         rng.integers(0, 2 ** 40, len(c.rows))], dtype=object)
        for by_source, idx in ((False, c.rows), (True, c.indices)):
            size = len(m.sources if by_source else m.targets)
            got = m.totals(vals, by_source=by_source).tolist()
            assert got == [sum(v for v, i in zip(vals.tolist(), idx) if i == j)
                           for j in range(size)]
            assert all(type(x) is int for x in got)


def test_scratch_sweep_matches_fresh_scatter():
    """One Scratch scattering every level of a diagram whose windows grow
    and shrink gives, at each level and in both orientations, the array a
    fresh ``scatter`` gives: the same bits, dtype, shape, strides and C
    layout, read-only.  Each level's values land on the zeros left by the
    previous one, so a stale entry would show."""
    for seed in range(12):
        d = random_system(seed, depth=8, min_m=1, max_m=24).diagram
        sizes = [len(d.window(n)) for n in range(d.depth + 1)]
        assert len(set(sizes)) > 2
        rng = np.random.default_rng(seed)
        scratch = dg.Scratch()
        for n in range(d.depth):
            F = d.F(n)
            k = len(F.csr.rows)
            vals = rng.standard_normal(k) * 10.0 ** rng.uniform(-300, 300, k)
            vals[rng.random(k) < 0.1] = -0.0
            for values in (vals, F.csr.mult):
                for by_source in (False, True):
                    got = scratch.scatter(F, values, by_source=by_source)
                    want = F.scatter(values, by_source=by_source)
                    assert got.dtype == want.dtype == np.float64
                    assert got.shape == want.shape
                    assert got.strides == want.strides
                    assert got.flags.c_contiguous
                    assert not got.flags.writeable
                    assert got.tobytes() == want.tobytes()
    # a stationary diagram is one record on every level: a level scattered
    # again in the same layout overwrites the entries the last one wrote
    d = dg.band_diagram(DRUNKEN, 4, dg.Window(-20, 20, 2))
    rng = np.random.default_rng(0)
    scratch = dg.Scratch()
    for n in range(d.depth):
        F = d.F(n)
        for by_source in (False, False, True, True, False):
            vals = rng.standard_normal(len(F.csr.rows))
            vals[rng.random(len(vals)) < 0.2] = -0.0
            got = scratch.scatter(F, vals, by_source=by_source)
            assert got.tobytes() == F.scatter(vals, by_source).tobytes()


def test_scratch_converts_wide_multiplicities_like_scatter():
    m = dg.incidence_from_entries(0, {(0, 0): 2 ** 70, (1, 0): 3, (1, 1): 1},
                                  dg.Window(0, 1), dg.Window(0, 1))
    assert m.csr.mult.dtype == object
    got = dg.Scratch().scatter(m, m.csr.mult)
    assert got.tobytes() == m.to_dense().tobytes()


def _refuse_big_zeros(monkeypatch, limit=10**6):
    """np.zeros raises MemoryError above ``limit`` elements, as numpy does
    when the system cannot hold the array."""
    real = np.zeros

    def zeros(shape, *args, **kwargs):
        if int(np.prod(shape)) > limit:
            raise MemoryError("injected")
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)


def test_a_dense_form_that_cannot_be_allocated_is_an_error(monkeypatch):
    """scatter and Scratch.scatter turn numpy's MemoryError into
    DenseTooLarge, which names the level, the shape and the GiB asked for;
    smaller forms are untouched."""
    big = sb.substitution_matrix(sb.drunkard_walk(),
                                 dg.Window(-4000, 4000, 2))   # 4001 vertices
    small = fib_diagram(3).F(0)
    _refuse_big_zeros(monkeypatch)
    assert small.to_dense().shape == (2, 2)
    for dense in (lambda: big.to_dense(level=7),
                  lambda: big.scatter(big.csr.mult, by_source=True, level=7),
                  lambda: dg.Scratch().scatter(big, big.csr.mult, level=7)):
        with pytest.raises(dg.DenseTooLarge) as exc:
            dense()
        err = exc.value
        assert (err.level, err.shape) == (7, (4001, 4001))
        assert err.gib == 4001 * 4001 * 8 / 2**30
        assert str(err) == ("a dense 4001 x 4001 float64 form of level 7 "
                            "needs 0.1 GiB, more than can be allocated")
        assert isinstance(err, dg.DiagramError)
    stack = np.ones((3, len(big.csr.rows)))
    with pytest.raises(dg.DenseTooLarge) as exc:
        dg.Scratch().scatter(big, stack, by_source=True, level=2)
    assert (exc.value.level, exc.value.shape) == (2, (3, 4001, 4001))


def test_source_pairs_are_the_sources_sharing_a_target():
    """Every pair (v, w), v <= w, of sources with a common target, once and
    in order; None when the rows would yield more pairs than the sources x
    sources array has entries."""
    rng = np.random.default_rng(18)
    seen_none = seen_pairs = 0
    for _ in range(200):
        m = _random_level(rng, *(int(x) for x in rng.integers(1, 30, 2)))
        c = m.csr
        k = np.diff(c.indptr)
        pairs = m.source_pairs
        if int(k @ k) > len(m.sources) ** 2:
            assert pairs is None
            seen_none += 1
            continue
        B = m.scatter(np.ones(len(c.rows))) > 0
        want = np.argwhere(np.triu(B.T.astype(int) @ B.astype(int)) > 0)
        assert np.array_equal(np.column_stack(pairs), want)
        seen_pairs += 1
    band = dg.band_diagram(DRUNKEN, 2, [-40, 40, 2]).F(0)
    v, w = band.source_pairs
    assert set((w - v).tolist()) == {0, 1, 2}   # offsets 0, 2 and 4
    assert seen_none and seen_pairs


def test_heights_exact_past_int64():
    d = fib_diagram(100)
    fib = [1, 1]
    while len(fib) < 102:
        fib.append(fib[-1] + fib[-2])
    # H^(n) = (F_{n+2}, F_{n+1}) with F_1 = F_2 = 1
    assert dg.heights(d, 100) == [fib[101], fib[100]]
    assert fib[100] > 2**63
    assert all(type(h) is int for h in dg.heights(d, 100))
    dg.heights(d, 100)[0] = 0               # callers get a copy
    assert dg.heights(d, 100)[0] == fib[101]


# -- stored array form -------------------------------------------------------

def _band_entries(band, win):
    """A band rule's mapping, entry by entry: row v has ``value`` at source
    v + offset when that source is in ``win``."""
    entries = {}
    for v in win.vertices:
        for o, val in band:
            if v + o in win:
                entries[(v, v + o)] = entries.get((v, v + o), 0) + val
    return entries


def _substitution_entries(s, win=None):
    """Occurrence counts, letter by letter: positions for a finite
    alphabet, letters inside ``win`` for a band rule."""
    entries = {}
    if s.offsets_word is None:
        letters = s.letters or tuple(sorted(s.words))
        pos = {a: i for i, a in enumerate(letters)}
        pairs = [(pos[a], pos[b]) for a in letters for b in s.image(a)]
    else:
        pairs = [(a, b) for a in win.vertices for b in s.image(a) if b in win]
    for key in pairs:
        entries[key] = entries.get(key, 0) + 1
    return entries


def _product_entries(high, low):
    """high @ low, entry by entry, in Python ints."""
    out = {}
    for (v, u), m2 in high.items():
        for (t, w), m1 in low.items():
            if t == u:
                out[(v, w)] = out.get((v, w), 0) + m2 * m1
    return out


def _telescoped(d, refs, cuts):
    """The telescoped diagram, each level with its product of mappings."""
    prods = []
    for lo, hi in zip(cuts, cuts[1:]):
        prod = refs[lo]
        for n in range(lo + 1, hi):
            prod = _product_entries(refs[n], prod)
        prods.append(prod)
    return dg.telescope(d, cuts), prods


def _random_band_rule(rng, step):
    """(window of ``step``, {offset: value}): a random band rule that the
    window clips."""
    offsets = rng.choice(np.arange(-3, 4), size=rng.integers(1, 5),
                         replace=False) * step
    band = {int(o): int(rng.integers(1, 4)) for o in offsets}
    span = max(abs(o) for o in band)
    lo = int(rng.integers(-20, 5)) * step
    return dg.Window(lo - 1, lo + 2 * span + int(rng.integers(0, 12)) * step,
                     step), band


def _random_band_substitution(rng):
    """(substitution, window): a random band-rule substitution on 'int' or
    'nat', with offsets on and off a step of 1-3 and exceptions inside
    and outside the window, whose every row keeps a letter."""
    step = int(rng.integers(1, 4))
    alphabet = "nat" if rng.random() < 0.4 else "int"
    lo = int(rng.integers(0, 6) if alphabet == "nat" else rng.integers(-20, 0))
    win = dg.Window(lo, lo + step * int(rng.integers(3, 10)), step)
    offsets = [0, *(int(o) for o in rng.integers(-3 * step, 3 * step + 1,
                                                 int(rng.integers(1, 4))))]
    keys = rng.integers(win.lo - 3 * step, win.hi + 3 * step + 1,
                        int(rng.integers(0, 4)))
    exceptions = {int(a): (int(rng.choice(win.vertices)), *(
        int(b) for b in rng.integers(win.lo - 2 * step, win.hi + 2 * step + 1,
                                     int(rng.integers(0, 3)))))
                  for a in keys}
    return sb.band_rule(offsets, alphabet, exceptions), win


def _random_band(rng, step):
    """A random band rule's level and its mapping."""
    win, band = _random_band_rule(rng, step)
    return dg.band_matrix(win, band), _band_entries(
        sorted(band.items()), win)


def _chain_levels():
    """Chain-network levels of a random kernel chain with zero entries."""
    rng = np.random.default_rng(12)
    spaces, kernels = [cl.CellSpace((0.2, 0.3, 0.5))], []
    for m in (4, 2, 5):
        shape = (spaces[-1].m, m)
        K = rng.random(shape) * (rng.random(shape) < 0.6)
        K[np.arange(len(K)), rng.integers(m, size=len(K))] += 1.0   # rows
        K[rng.integers(len(K), size=m), np.arange(m)] += 1.0        # columns
        kernels.append(cl.kernel_from((K / K.sum(axis=1)[:, None]).tolist()))
        spaces.append(cl.CellSpace(tuple(spaces[-1].nu(False)
                                         @ kernels[-1].array(False))))
    assert any((k.array(False) == 0).any() for k in kernels)
    d = cl.chain_network(spaces, kernels).kernels.diagram
    refs = []
    for k in kernels:
        src, tgt = np.nonzero(k.array(False))
        refs.append(dict.fromkeys(zip(tgt.tolist(), src.tolist()), 1))
    return d, refs


@functools.cache
def _reference_cases():
    """name -> (diagram or None, [(level, its mapping made entry by
    entry)]), built once for all the tests that read them."""
    cases = {}
    for name, seed, kw in (("random-0", 0, {}),
                           ("random-9", 9, dict(depth=4, min_m=1, max_m=7))):
        d = random_system(seed, **kw).diagram
        refs = [e for e, _, _ in random_levels(np.random.default_rng(seed),
                                                **kw)]
        cases[name] = (d, list(zip(d.levels, refs)))
    win = dg.Window(-20, 20, 2)
    band = dg.band_diagram(DRUNKEN, depth=2, window=win)
    assert not band.F(0).interior_rows.all()
    cases["band-clipped"] = (band, [(m, _band_entries(sorted(DRUNKEN.items()),
                                                      win))
                                    for m in map(band.F, range(2))])
    rng = np.random.default_rng(21)
    for step in (1, 2):
        cases[f"random-bands-step-{step}"] = (
            None, [_random_band(rng, step) for _ in range(30)])
    # offset 1 is not a multiple of the step: it lands on no vertex
    off_step, win = {-2: 1, 1: 3, 2: 1}, dg.Window(-11, 10, 2)
    cases["band-offset-off-step"] = (None, [(
        dg.band_matrix(win, off_step),
        _band_entries(sorted(off_step.items()), win))])
    nat_win = dg.Window(0, 12)
    nat = sb.substitution_matrix(sb.nat_length_two(), nat_win)
    assert not nat.interior_rows.all() and not nat.interior_cols.all()
    nat_d = dg.stationary_diagram(nat, 2)
    nat_ref = _substitution_entries(sb.nat_length_two(), nat_win)
    cases["nat-substitution"] = (nat_d, [(m, nat_ref)
                                         for m in map(nat_d.F, range(2))])
    walk_win = dg.Window(-10, 10, 2)
    finite = sb.from_strings({"a": "abca", "b": "cc", "c": "baa"})
    cases["substitutions"] = (None, [
        (sb.substitution_matrix(sb.drunkard_walk(), walk_win),
         _substitution_entries(sb.drunkard_walk(), walk_win)),
        (sb.substitution_matrix(finite), _substitution_entries(finite))])
    refs = [e for e, _, _ in random_levels(np.random.default_rng(5))]
    tele, prods = _telescoped(random_system(5).diagram, refs, (0, 2, 5, 6))
    cases["telescoped"] = (tele, list(zip(tele.levels, prods)))
    wide = dg.stationary_diagram([[2 ** 40, 3], [1, 2 ** 33]], 4)
    tele, prods = _telescoped(wide, [{(0, 0): 2 ** 40, (0, 1): 3, (1, 0): 1,
                                      (1, 1): 2 ** 33}] * 4, (0, 1, 4))
    assert tele.F(1).csr.mult.dtype == object
    # no query test: its edge order would list 2^120 parallel edges
    cases["telescoped-past-int64"] = (None, list(zip(tele.levels, prods)))
    chain, refs = _chain_levels()
    cases["chain-network"] = (chain, list(zip(chain.levels, refs)))
    return cases


@pytest.mark.parametrize("name", sorted(_reference_cases()))
def test_builders_match_mapping_reader(name):
    """Each builder's arrays are, array for array and dtype for dtype, the
    ones the mapping reader makes from the same entries."""
    for m, ref in _reference_cases()[name][1]:
        want = dg.incidence_from_entries(0, ref, m.row_window,
                                         m.col_window).csr
        for field, got in zip(dg.CSR._fields, m.csr):
            assert got.dtype == getattr(want, field).dtype, field
            assert np.array_equal(got, getattr(want, field)), field


@pytest.mark.parametrize("name", sorted(
    k for k, (d, _) in _reference_cases().items() if d is not None))
def test_array_form_matches_entries(name):
    """Every array-backed query agrees with a reference built from the
    level's mapping alone, with plain Python ints for labels and counts."""
    d, levels = _reference_cases()[name]
    order = dg.natural_order(d)
    for n, (m, ent) in enumerate(levels):
        tv, sv = m.targets, m.sources
        dense = np.zeros((len(tv), len(sv)), dtype=np.int64)
        for (v, w), k in ent.items():
            dense[tv.index(v), sv.index(w)] = k
        for v in tv:
            row = sorted((w, k) for (t, w), k in ent.items() if t == v)
            assert m.row_entries(v) == row
            assert order.order_at(d, n, v) == tuple(
                (w, r) for w, k in row for r in range(k))
            assert all(type(x) is int for pair in row for x in pair)
        for w in sv:
            assert m.col_entries(w) == sorted(
                (v, k) for (v, s), k in ent.items() if s == w)
        for v in tv:
            for w in sv + (sv[-1] + 1,):
                got = m.multiplicity(v, w)
                assert got == ent.get((v, w), 0) and type(got) is int
        assert m.row_entries(tv[-1] + 1) == [] == m.col_entries(sv[-1] + 1)
        assert m.multiplicity(tv[-1] + 1, sv[0]) == 0
        assert np.array_equal(m.to_dense(), dense.astype(np.float64))
        by_source = m.scatter(m.csr.mult, by_source=True)
        assert np.array_equal(by_source, dense.T)
        assert by_source.flags.c_contiguous and by_source.dtype == np.float64
        assert np.array_equal(m.row_sums(), dense.sum(axis=1))
        assert np.array_equal(m.col_sums(), dense.sum(axis=0))


def _band_interior(m, band):
    """Reference masks of a band rule on one window: row v is interior
    when every v + offset is a vertex, column w when every w - offset is."""
    win = m.row_window
    return ([all(v + o in win for o in band) for v in win.vertices],
            [all(w - o in win for o in band) for w in win.vertices])


def _substitution_interior(m, s):
    """Reference masks of a band-rule substitution, letter by letter: row a
    is interior when its whole image lies in the window, column w when
    every letter whose image holds w does.  The letters are the
    exceptions and every integer of the alphabet, on the window's step or
    off it, as in ``_band_interior``."""
    win = m.row_window
    reach = max(abs(o) for o in s.offsets_word)
    letters = {a for a in range(win.lo - reach, win.hi + reach + 1)
               if s.alphabet == "int" or a >= 0}
    letters |= set(s.words)
    return ([all(b in win for b in s.image(a)) for a in win.vertices],
            [all(a in win for a in letters if w in s.image(a))
             for w in win.vertices])


def _interior_cases():
    """name -> [(level, reference row mask, reference column mask)]."""
    rng = np.random.default_rng(23)
    bands = [(f"random-bands-step-{step}", _random_band_rule(rng, step))
             for step in (1, 2) for _ in range(30)]
    bands += [("band-step-2", (dg.Window(-20, 20, 2), DRUNKEN)),
              # offset 1 is not a multiple of the step: it lands on no vertex
              ("band-offset-off-step", (dg.Window(-11, 10, 2),
                                        {-2: 1, 1: 3, 2: 1}))]
    cases = {}
    for name, (win, band) in bands:
        m = dg.band_matrix(win, band)
        cases.setdefault(name, []).append((m, *_band_interior(m, band)))
    subs = {"nat-length-two": (sb.nat_length_two(), dg.Window(0, 12)),
            "drunkard-walk": (sb.drunkard_walk(), dg.Window(-10, 10, 2)),
            "int-band-rule-exceptions": (sb.band_rule(
                (-1, 2), exceptions={0: (0,), 3: (-5, 1, 1), 9: (8,)}),
                dg.Window(-8, 8)),
            # n + 1 is off the step: it clips every row, and the
            # off-step letter w - 1 feeds every column from outside
            "substitution-offset-off-step": (sb.band_rule((-2, 1, 2)),
                                             dg.Window(-10, 10, 2))}
    for name, (s, win) in subs.items():
        m = sb.substitution_matrix(s, win)
        cases[name] = [(m, *_substitution_interior(m, s))]
    for s, win in (_random_band_substitution(rng) for _ in range(30)):
        m = sb.substitution_matrix(s, win)
        cases.setdefault("random-band-substitutions", []).append(
            (m, *_substitution_interior(m, s)))
    chain, _ = _chain_levels()
    untruncated = [
        dg.incidence_from_dense(0, [[1, 2, 0], [0, 1, 1]]),
        sb.substitution_matrix(sb.fibonacci()),
        *random_system(9, depth=2, min_m=1, max_m=7).diagram.levels,
        *chain.levels]
    cases["unbanded"] = [(m, [True] * len(m.targets),
                          [True] * len(m.sources)) for m in untruncated]
    return cases


@pytest.mark.parametrize("name", sorted(_interior_cases()))
def test_interior_masks_match_vertex_definition(name):
    clipped = False
    for m, rows, cols in _interior_cases()[name]:
        for got, want in ((m.interior_rows, rows), (m.interior_cols, cols)):
            assert got.dtype == bool and not got.flags.writeable
            assert got.tolist() == want
        clipped |= not all(rows) or not all(cols)
    assert clipped == (name != "unbanded")


# -- paths and cylinders -----------------------------------------------------

def test_enumerate_allones_level2():
    d = allones_diagram(3)
    paths = dg.enumerate_cylinders(d, (2, 0))
    assert len(paths) == 4
    assert len({p.edges for p in paths}) == 4
    assert all(p.terminal == (2, 0) for p in paths)


def test_enumerate_single_vertex_chain():
    d = dg.stationary_diagram([[1]], 5)
    for n in range(6):
        assert len(dg.enumerate_cylinders(d, (n, 0))) == 1


def test_enumerate_double_edge_ranks():
    d = dg.stationary_diagram([[2]], 3)
    paths = dg.enumerate_cylinders(d, (2, 0))
    assert len(paths) == 4
    ranks = {tuple(e[3] for e in p.edges) for p in paths}
    assert ranks == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_enumerate_cap():
    d = allones_diagram(6)
    with pytest.raises(dg.TooManyPaths):
        dg.enumerate_cylinders(d, (6, 0), cap=10)


def test_path_chaining_enforced():
    with pytest.raises(ValueError):
        dg.FinitePath(((0, 0, 1, 0), (1, 0, 0, 0)))  # source 0 != target 1
    with pytest.raises(ValueError):
        dg.FinitePath(((1, 0, 0, 0),))  # does not start at level 0


def test_empty_path_needs_start():
    p = dg.FinitePath((), start=(0, 1))
    assert p.terminal == (0, 1)
    with pytest.raises(ValueError):
        dg.FinitePath(()).terminal


@pytest.mark.parametrize("path", [
    dg.FinitePath((), (-1, 0)),                 # empty, at a negative level
    dg.FinitePath(((-1, 1, 0, 0),), (-1, 1)),   # an edge below level 0
    dg.FinitePath((), (3, 0)),                  # empty, above the top
    dg.FinitePath(((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0))),  # too deep
    dg.FinitePath(((0, 2, 0, 0),)),             # a source off its level
])
def test_path_in_diagram_refuses_levels_off_the_diagram(path):
    d = dg.stationary_diagram([[1, 1], [0, 1]], 2)
    assert not dg.path_in_diagram(d, path)
    assert dg.path_in_diagram(d, dg.FinitePath((), (2, 1)))
    assert dg.path_in_diagram(d, dg.FinitePath(((0, 1, 0, 0), (1, 0, 0, 0))))


# -- tail equivalence --------------------------------------------------------

def test_tail_equivalent_identical():
    d = allones_diagram(3)
    p = dg.enumerate_cylinders(d, (3, 0))[0]
    assert dg.tail_equivalent(p, p) == 0


def test_tail_equivalent_level0_difference():
    d = allones_diagram(3)
    paths = dg.enumerate_cylinders(d, (3, 0))
    p = paths[0]
    q = next(r for r in paths
             if r.edges[0] != p.edges[0] and r.edges[1:] == p.edges[1:])
    assert dg.tail_equivalent(p, q) == 1


def test_tail_equivalent_odometer_carry():
    # integers 3 and 4 in binary, least-significant digit first
    d = dg.stationary_diagram([[2]], 4)
    digits3 = (1, 1, 0, 0)
    digits4 = (0, 0, 1, 0)
    p3 = dg.FinitePath(tuple((k, 0, 0, r) for k, r in enumerate(digits3)))
    p4 = dg.FinitePath(tuple((k, 0, 0, r) for k, r in enumerate(digits4)))
    assert dg.path_in_diagram(d, p3) and dg.path_in_diagram(d, p4)
    assert dg.tail_equivalent(p3, p4) == 3


def test_tail_equivalent_length_mismatch():
    d = allones_diagram(3)
    p = dg.enumerate_cylinders(d, (2, 0))[0]
    q = dg.enumerate_cylinders(d, (3, 0))[0]
    with pytest.raises(dg.LengthMismatch):
        dg.tail_equivalent(p, q)


# -- adic successor ----------------------------------------------------------

def test_odometer_successor_steps():
    d = dg.stationary_diagram([[2]], 2)
    order = dg.natural_order(d)
    p00 = dg.FinitePath(((0, 0, 0, 0), (1, 0, 0, 0)))
    p10 = dg.vershik_successor(d, order, p00)
    assert tuple(e[3] for e in p10.edges) == (1, 0)
    p01 = dg.vershik_successor(d, order, p10)
    assert tuple(e[3] for e in p01.edges) == (0, 1)
    p11 = dg.vershik_successor(d, order, p01)
    assert tuple(e[3] for e in p11.edges) == (1, 1)
    assert dg.vershik_successor(d, order, p11) is None


def test_minimal_path_first_edge_non_maximal():
    d = fib_diagram(4)
    order = dg.natural_order(d)
    p = dg.minimal_path(d, order, (4, 0))
    nxt = dg.vershik_successor(d, order, p)
    assert nxt is not None
    # the successor of the minimal path bumps the very first edge
    assert nxt.edges[0] != p.edges[0]
    assert nxt.edges[1:] == p.edges[1:]


def test_orbit_covers_tower_once():
    d = dg.stationary_diagram([[2]], 4)
    order = dg.natural_order(d)
    start = dg.minimal_path(d, order, (4, 0))
    orbit = dg.vershik_orbit(d, order, start)
    assert len(orbit) == 16
    assert len({p.edges for p in orbit}) == 16
    # binary-counter order: path k encodes the integer k, digits LSB first
    for k, p in enumerate(orbit):
        value = sum(r << i for i, (_, _, _, r) in enumerate(p.edges))
        assert value == k


def test_natural_order_refuses_more_edges_than_the_cap(monkeypatch):
    # 2^120 parallel edges into one target: counted, not listed
    d = dg.telescope(dg.stationary_diagram([[2 ** 60]], 2), (0, 2))
    order = dg.natural_order(d)
    with pytest.raises(dg.TooManyPaths) as err:
        order.order_at(d, 0, 0)
    assert err.value.count == 2 ** 120
    assert err.value.cap == dg.DEFAULT_PATH_CAP
    monkeypatch.setattr(dg, "DEFAULT_PATH_CAP", 4)

    def one_row(row):
        d = dg.validate([dg.incidence_from_dense(
            0, [row], dg.Window(0, 0), dg.Window(0, 1))])
        return dg.natural_order(d).order_at(d, 0, 0)

    assert one_row([1, 3]) == ((0, 0), (1, 0), (1, 1), (1, 2))
    with pytest.raises(dg.TooManyPaths):
        one_row([2, 3])


@pytest.mark.parametrize("stationary", [True, False])
def test_check_order_reads_each_target_once_per_distinct_level(stationary):
    """An order checks every level record it meets, and a level's cumulative
    multiplicities are read once per record: five equal levels built one
    by one are one record, five alternating ones are five."""
    order = dg.EdgeOrder((np.arange(4),) * (1 if stationary else 5))
    assert order.stationary == stationary
    equal = dg.validate([dg.incidence_from_dense(n, ALL_ONES)
                         for n in range(5)])
    assert equal.stationary and len(equal.levels) == 1
    dg.check_order(equal, order)
    assert "edge_starts" in vars(equal.levels[0])
    other = [[2, 1], [0, 1]]   # four edges, three of them into target 0
    mixed = dg.validate([dg.incidence_from_dense(n, other if n % 2 else
                                                 ALL_ONES) for n in range(5)])
    assert not mixed.stationary and len(mixed.levels) == 5
    dg.check_order(mixed, order)
    assert all("edge_starts" in vars(m) for m in mixed.levels)


def test_check_order_rejects_partial_lists():
    """Each target's list less its last edge is too short an array."""
    d = allones_diagram(2)
    with pytest.raises(dg.WindowMismatch, match="lists 2 edges, not 4"):
        dg.check_order(d, dg.EdgeOrder((np.array([0, 2]),)))


# target 0 of [[1, 2], [1, 1]] has natural positions 0..2, target 1 3..4
_BAD_ORDERS = {
    "missing edge": ([0, 1, 7, 3, 4], "target 0"),
    "repeated edge": ([0, 1, 1, 3, 4], "target 0"),
    "edge in another block": ([0, 1, 3, 2, 4], "target 0"),
    "too short": ([0, 1, 2, 3], "lists 4 edges, not 5"),
    "too long": ([0, 1, 2, 3, 4, 4], "lists 6 edges, not 5"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ORDERS))
def test_check_order_rejects(case):
    perm, message = _BAD_ORDERS[case]
    d = dg.stationary_diagram([[1, 2], [1, 1]], 4)
    order = dg.EdgeOrder((np.array(perm),))
    with pytest.raises(dg.WindowMismatch, match=f"level 0.*{message}"):
        dg.check_order(d, order)


def test_check_order_rejects_a_per_level_order_bad_on_one_level():
    d = dg.stationary_diagram([[1, 2], [1, 1]], 5)
    perms = [np.arange(5), None, np.array([2, 1, 0, 4, 3]),
             np.array([0, 1, 3, 2, 4]), np.arange(5)]
    with pytest.raises(dg.WindowMismatch, match="level 3, target 0"):
        dg.check_order(d, dg.EdgeOrder(tuple(perms)))
    perms[3] = None
    dg.check_order(d, dg.EdgeOrder(tuple(perms)))


def test_order_array_lists_natural_positions():
    """A block reversed in the array is read back reversed, rank by rank,
    on every level of a stationary order."""
    d = dg.stationary_diagram([[1, 2], [1, 1]], 3)
    order = dg.EdgeOrder((np.array([2, 1, 0, 4, 3]),))
    dg.check_order(d, order)
    for n in range(3):
        assert order.order_at(d, n, 0) == ((1, 1), (1, 0), (0, 0))
        assert order.order_at(d, n, 1) == ((1, 0), (0, 0))
    assert dg.minimal_path(d, order, (2, 0)).edges == ((0, 1, 1, 0),
                                                      (1, 1, 0, 1))
    with pytest.raises(ValueError, match="read-only"):
        order.perms[0][0] = 0


@pytest.mark.parametrize("level", [-1, 4, 7])
def test_minimal_path_refuses_a_level_off_the_diagram(level):
    d = dg.stationary_diagram([[2]], 3)
    with pytest.raises(dg.CutsOutOfRange):
        dg.minimal_path(d, dg.natural_order(d), (level, 0))


@pytest.mark.parametrize("level", [-1, 3])
def test_order_at_refuses_an_edge_level_off_the_diagram(level):
    d = dg.stationary_diagram([[2]], 3)
    with pytest.raises(dg.CutsOutOfRange):
        dg.natural_order(d).order_at(d, level, 0)


def test_minimal_path_refuses_a_vertex_off_its_level():
    d = dg.stationary_diagram([[2]], 3)
    with pytest.raises(KeyError):
        dg.minimal_path(d, dg.natural_order(d), (2, 5))


@pytest.mark.parametrize("edges,bad", [
    (((0, 0, 0, 0), (1, 0, 0, 3)), (1, 0, 0, 3)),   # rank past the edges
    (((0, 0, 0, 0), (1, 0, 1, 0)), (1, 0, 1, 0)),   # target off its level
    (((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)), (2, 0, 0, 0)),   # too deep
])
def test_successor_refuses_an_edge_not_in_the_diagram(edges, bad):
    d = dg.stationary_diagram([[2]], 2)
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        dg.vershik_successor(d, dg.natural_order(d), dg.FinitePath(edges))
