"""Spectral layer: irreducibility screening, the dominant-eigenvalue solver
with its structural shortcuts, and the recurrence-trend classifier."""

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import perron as pf
from bratteli import substitution as sb

from conftest import DRUNKEN, FIB, GOLDEN


def level(A):
    """The square incidence level F = A^T, so that pf analyses A."""
    return dg.incidence_from_dense(0, np.transpose(A))


def drunken_window(lo, hi):
    """The DRUNKEN band on the window [lo, hi] of step 2 (symmetric, so
    A = F^T = F)."""
    return dg.band_matrix(dg.Window(lo, hi, 2), DRUNKEN)


def nat_window(hi):
    return sb.substitution_matrix(sb.nat_length_two(), dg.Window(0, hi))


# -- irreducibility ----------------------------------------------------------

class TestIrreducibility:
    def test_allones_aperiodic(self):
        rep = pf.check_irreducible_aperiodic(level([[1, 1], [1, 1]]))
        assert rep.ok and rep.strongly_connected
        assert rep.period == 1

    def test_two_cycle_period_two(self):
        rep = pf.check_irreducible_aperiodic(level([[0, 1], [1, 0]]))
        assert not rep.ok
        assert rep.period == 2

    def test_three_cycle_period_three(self):
        rep = pf.check_irreducible_aperiodic(
            level([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
        assert not rep.ok and rep.strongly_connected
        assert rep.period == 3
        assert rep.note == "period 3"

    def test_disconnected(self):
        rep = pf.check_irreducible_aperiodic(level([[1, 0], [0, 1]]))
        assert not rep.ok and not rep.strongly_connected

    def test_one_way_is_not_strongly_connected(self):
        # every vertex is reachable from vertex 0, but 0 from no other
        rep = pf.check_irreducible_aperiodic(level([[1, 1], [0, 1]]))
        assert not rep.strongly_connected

    def test_drunken_band_diagonal_gives_period_one(self):
        rep = pf.check_irreducible_aperiodic(drunken_window(-20, 20))
        assert rep.ok and rep.period == 1

    def test_non_square_level_rejected(self):
        m = dg.incidence_from_entries(0, {(0, 0): 1, (1, 1): 1, (2, 0): 1},
                                      dg.Window(0, 2), dg.Window(0, 1))
        with pytest.raises(pf.PFFailed, match="got 2 source and 3 target"):
            pf.check_irreducible_aperiodic(m)


# -- pf_solve ----------------------------------------------------------------

class TestClosedForms:
    def test_allones_exact(self):
        sd = pf.pf_solve(level([[1, 1], [1, 1]]))
        assert sd.lam == 2.0
        assert sd.shortcut == "constant-row-and-column-sums"
        assert np.allclose(sd.right, [1.0, 1.0], atol=0)

    def test_fibonacci_golden_ratio(self):
        sd = pf.pf_solve(level(FIB))
        assert abs(sd.lam - GOLDEN) < 1e-9
        # t proportional to (phi, 1): anchored at the center vertex
        ratio = sd.right[0] / sd.right[1]
        assert abs(ratio - GOLDEN) < 1e-9
        assert sd.residual < 1e-10

    def test_drunken_exact_row_sum_shortcut(self):
        sd = pf.pf_solve(drunken_window(-40, 40))
        assert sd.lam == 4.0
        assert sd.shortcut.startswith("constant-row")
        assert float(np.ptp(sd.right)) == 0.0

    def test_left_vector_is_eigenvector(self):
        sd = pf.pf_solve(level(FIB))
        A = np.array(FIB, dtype=float)
        assert np.abs(sd.left @ A - sd.lam * sd.left).max() < 1e-9

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            pf.pf_solve(level([[1, 0], [0, 1]]))


def _power_reference(dense):
    """The power iteration without its fixed-point exit: a converged loop
    polishes 40 iterates, or stops at a zero residual."""
    m = dense.shape[0]
    B = dense + np.eye(m)
    v = np.ones(m)
    best = None
    polish = 0
    for it in range(1, pf._MAXITER + 1):
        w = B @ v
        w /= np.abs(w).max()
        Bw = B @ w
        lam = (w @ Bw) / (w @ w)
        res = np.abs(Bw - lam * w).max() / np.abs(w).max()
        v = w
        if best is None or res < best[3]:
            best = (lam - 1.0, v, it, res)
        if res < 1e-13 * max(1.0, lam):
            polish += 1
            if polish >= 40 or res == 0.0:
                return best[:3]
    raise AssertionError("the reference did not converge")


def _primitive(rng):
    """A random primitive matrix: a cycle through every vertex, a loop and
    random extra entries."""
    k = int(rng.integers(1, 12))
    A = rng.integers(0, 4, (k, k)) * (rng.random((k, k)) < 0.3)
    A[np.arange(k), (np.arange(k) + 1) % k] += 1
    A[0, 0] += 1
    return A.astype(float)


def test_power_iteration_stops_at_a_fixed_point_with_the_same_answer():
    """Stopping where an iterate repeats its predecessor bit for bit gives
    the lambda, vector and iteration count, to the bit, that polishing on
    gives: on both orientations of the examples' levels and of seeded
    random primitive matrices."""
    rng = np.random.default_rng(41)
    mats = [np.array(A, dtype=float) for A in
            (FIB, [[1, 1], [1, 1]], [[2, 1], [1, 1]], [[1]])]
    mats += [m.to_dense() for m in (drunken_window(-30, 30), nat_window(12),
                                    sb.substitution_matrix(sb.fibonacci()))]
    mats += [_primitive(rng) for _ in range(40)]
    for A in mats:
        for dense in (A.T, A):
            lam, vec, its = pf._power(dense)
            ref_lam, ref_vec, ref_its = _power_reference(dense)
            assert (lam.hex(), its) == (ref_lam.hex(), ref_its)
            assert vec.tobytes() == ref_vec.tobytes()


def test_power_iteration_matches_eigh_on_random_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.integers(1, 5, (4, 4)).astype(float)
        A = A + A.T
        sd = pf.pf_solve(level(A))
        lam_true = float(np.linalg.eigvalsh(A)[-1])
        assert abs(sd.lam - lam_true) < 1e-9


def test_column_sum_shortcut():
    # constant column sums pin lambda without constant rows
    A = [[2, 1], [1, 2]]
    sd = pf.pf_solve(level(A))
    assert sd.lam == 3.0


def test_asymmetric_matrix_vectors_are_right_and_left():
    A = np.array([[1.0, 2.0], [3.0, 1.0]])   # no constant sums
    sd = pf.pf_solve(level(A))
    assert sd.shortcut is None
    assert abs(sd.lam - (1.0 + np.sqrt(6.0))) < 1e-12
    assert np.abs(A @ sd.right - sd.lam * sd.right).max() < 1e-12
    assert np.abs(sd.left @ A - sd.lam * sd.left).max() < 1e-12


# untruncated levels, a band clipped on both sides with both sum claims,
# and clipped nat windows whose column-sum claim is the infinite matrix's
ONE_EIGENPAIR = {
    "fibonacci": lambda: level(FIB),
    "odometer-3": lambda: sb.substitution_matrix(sb.odometer(3)),
    "drunkard-walk": lambda: sb.substitution_matrix(sb.drunkard_walk(),
                                                    dg.Window(-20, 20, 2)),
    "nat-12": lambda: nat_window(12),
    "nat-40": lambda: nat_window(40),
    "nat-200": lambda: nat_window(200),
    "drunken-band": lambda: drunken_window(-30, 30),
}


@pytest.mark.parametrize("name", list(ONE_EIGENPAIR))
def test_lambda_and_right_vector_are_one_eigenpair(name):
    """A t = lambda t on the interior columns, relative to max |t|: on a
    clipped nat window the claimed lambda 2 once came with the window's
    own vector, 3.2e-4 off on [0, 12]."""
    m = ONE_EIGENPAIR[name]()
    sd = pf.pf_solve(m)
    A = m.to_dense().T
    gap = np.abs(A @ sd.right - sd.lam * sd.right)[m.interior_cols]
    assert gap.max(initial=0.0) / np.abs(sd.right).max() < 1e-10


def test_multiplicity_beyond_int64_gives_exact_sum():
    sd = pf.pf_solve(level([[2 ** 70]]))
    assert sd.lam == float(2 ** 70)
    assert sd.shortcut == "constant-row-and-column-sums"


def test_sums_past_int64_of_int64_entries_stay_exact():
    """Every entry 2^62 fits int64, but the row and column sums 2^63 do
    not: they wrapped to -2^63 and lambda read -9.2e18."""
    sd = pf.pf_solve(level([[2 ** 62] * 2] * 2))
    assert sd.lam == 2.0 ** 63
    assert sd.shortcut == "constant-row-and-column-sums"
    assert sd.residual == 0.0


# -- return series -----------------------------------------------------------

def test_return_series_allones():
    m = level([[1, 1], [1, 1]])
    rs = pf.return_series(m, 0, horizon=6)
    # a^(n)_00 = 2^(n-1); first returns stay inside {1}, so l(n) = 1
    assert rs.a == (1, 2, 4, 8, 16, 32)
    assert rs.ell == (1, 1, 1, 1, 1, 1)
    # analyze pf's classification reads the same series: a finite
    # irreducible level sums its first 2 * 2 + 4 terms
    rep = pf.classify_recurrence(m, 2.0, vertex=0)
    rs = pf.return_series(m, 0, horizon=8)
    assert rep.horizon == 8
    assert rep.partial_a == sum(x * 2.0 ** -n for n, x in enumerate(rs.a, 1))
    assert rep.partial_ell == sum(n * e * 2.0 ** -n
                                  for n, e in enumerate(rs.ell, 1))


def _dict_series(m, vertex, horizon):
    """Reference: step a row vector keyed by vertex labels through the
    level's triplets (A = F^T steps from source w to target v)."""
    nbr = {}
    for v, w, mult in m.triplets():
        nbr.setdefault(w, []).append((v, mult))

    def step(row):
        out = {}
        for k, wgt in row.items():
            for j, mult in nbr.get(k, ()):
                out[j] = out.get(j, 0) + wgt * mult
        return out

    row, a = {vertex: 1}, []
    for _ in range(horizon):
        row = step(row)
        a.append(row.get(vertex, 0))
    first, ell = step({vertex: 1}), []
    for _ in range(horizon):
        ell.append(first.get(vertex, 0))
        first.pop(vertex, None)
        first = step(first)
    return tuple(a), tuple(ell)


def _dict_horizon(m, vertex, horizon):
    """Reference: BFS from the vertex through interior rows of A only; the
    first non-interior row met at distance d bounds the horizon by d."""
    interior = dict(zip(m.sources, m.interior_cols))
    nbr = {}
    for v, w, _ in m.triplets():
        nbr.setdefault(w, []).append(v)
    if not interior[vertex]:
        return 0
    dist, frontier, d, bad = {vertex: 0}, [vertex], 0, horizon
    while frontier and d < horizon:
        d += 1
        nxt = []
        for u in frontier:
            if not interior[u]:
                bad = min(bad, dist[u])
                continue
            for j in nbr.get(u, ()):
                if j not in dist:
                    dist[j] = d
                    nxt.append(j)
        frontier = nxt
    return min(horizon, bad)


@pytest.mark.parametrize("m, lam, horizon", [
    (drunken_window(-60, 60), 4.0, 24),
    (drunken_window(-16, 16), 4.0, 40),
    (nat_window(80), 2.0, 24),
], ids=["drunken60", "drunken16", "nat80"])
def test_series_and_horizon_match_dict_reference(m, lam, horizon):
    verts = m.sources
    for vertex in sorted({verts[0], verts[2], verts[len(verts) // 2],
                          verts[-3], verts[-1]}):
        h = _dict_horizon(m, vertex, horizon)
        rep = pf.classify_recurrence(m, lam, horizon=horizon, vertex=vertex)
        assert rep.horizon == h
        rs = pf.return_series(m, vertex, horizon)
        assert (rs.a, rs.ell) == _dict_series(m, vertex, horizon)
        assert all(type(x) is int for x in rs.a + rs.ell)


# -- recurrence classification ------------------------------------------------

class TestClassification:
    def test_finite_irreducible_positive_recurrent(self):
        rep = pf.classify_recurrence(level([[1, 1], [1, 1]]), 2.0)
        assert rep.classification == "PositiveRecurrent"

    def test_drunken_null_recurrent_trend(self):
        rep = pf.classify_recurrence(drunken_window(-60, 60), 4.0,
                                     horizon=24)
        assert rep.classification == "NullRecurrent"

    def test_nat_substitution_positive_recurrent_trend(self):
        # probe near the bottom of the alphabet, where return loops are
        # short and the window never interferes within the horizon
        m = nat_window(80)
        sd = pf.pf_solve(m)
        assert abs(sd.lam - 2.0) < 1e-6
        rep = pf.classify_recurrence(m, sd.lam, horizon=24, vertex=2)
        assert rep.classification == "PositiveRecurrent"

    def test_horizon_shrinks_near_window_edge(self):
        rep = pf.classify_recurrence(drunken_window(-16, 16), 4.0,
                                     horizon=40)
        assert rep.horizon < 40
        assert "horizon" in rep.note

    def test_vertex_outside_the_interior_gives_unknown(self):
        # a window-edge vertex has no return length free of truncation
        rep = pf.classify_recurrence(drunken_window(-16, 16), 4.0,
                                     vertex=-16)
        assert rep.horizon == 0
        assert rep.classification == "Unknown"
        assert rep.lam_hat is None
