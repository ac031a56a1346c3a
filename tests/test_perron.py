"""Spectral layer: irreducibility screening, the dominant-eigenvalue solver
with its structural shortcuts, and the recurrence-trend classifier."""

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import perron as pf

from conftest import DRUNKEN, FIB, GOLDEN


def drunken_window(lo, hi):
    """The DRUNKEN band as A = F^T on the window [lo, hi] of step 2."""
    return pf.incidence_transpose(
        dg.band_matrix(0, dg.Window(lo, hi, 2), DRUNKEN))


# -- irreducibility ----------------------------------------------------------

class TestIrreducibility:
    def test_allones_aperiodic(self):
        rep = pf.check_irreducible_aperiodic(np.array([[1.0, 1], [1, 1]]))
        assert rep.ok and rep.strongly_connected
        assert rep.period == 1

    def test_two_cycle_period_two(self):
        rep = pf.check_irreducible_aperiodic(np.array([[0.0, 1], [1, 0]]))
        assert not rep.ok
        assert rep.period == 2

    def test_disconnected(self):
        rep = pf.check_irreducible_aperiodic(
            np.array([[1.0, 0], [0, 1]]))
        assert not rep.ok and not rep.strongly_connected

    def test_drunken_band_diagonal_gives_period_one(self):
        mw = drunken_window(-20, 20)
        rep = pf.check_irreducible_aperiodic(mw)
        assert rep.ok and rep.period == 1


# -- pf_solve ----------------------------------------------------------------

class TestClosedForms:
    def test_allones_exact(self):
        sd = pf.pf_solve(pf.dense_window([[1, 1], [1, 1]]))
        assert sd.lam == 2.0
        assert sd.shortcut == "constant-row-and-column-sums"
        assert np.allclose(sd.right, [1.0, 1.0], atol=0)

    def test_fibonacci_golden_ratio(self):
        sd = pf.pf_solve(pf.dense_window(FIB))
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
        sd = pf.pf_solve(pf.dense_window(FIB))
        A = np.array(FIB, dtype=float)
        assert np.abs(sd.left @ A - sd.lam * sd.left).max() < 1e-9

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            pf.pf_solve(pf.dense_window([[1, 0], [0, 1]]))


def test_power_iteration_matches_eigh_on_random_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.integers(1, 5, (4, 4)).astype(float)
        A = A + A.T
        sd = pf.pf_solve(pf.dense_window(A))
        lam_true = float(np.linalg.eigvalsh(A)[-1])
        assert abs(sd.lam - lam_true) < 1e-9


def test_column_sum_shortcut():
    # constant column sums pin lambda without constant rows
    A = [[2, 1], [1, 2]]
    sd = pf.pf_solve(pf.dense_window(A))
    assert sd.lam == 3.0


# -- return series -----------------------------------------------------------

def test_return_series_allones():
    mw = pf.dense_window([[1, 1], [1, 1]])
    rs = pf.return_series(mw, 0, horizon=6)
    # a^(n)_00 = 2^(n-1); first returns stay inside {1}, so l(n) = 1
    assert rs.a == (1, 2, 4, 8, 16, 32)
    assert rs.ell == (1, 1, 1, 1, 1, 1)


def test_return_series_needs_exact_entries():
    mw = pf.MatrixWindow((0, 1), np.array([[0.5, 0.5], [0.5, 0.5]]),
                         np.ones(2, bool), np.ones(2, bool), None, None, None)
    with pytest.raises(ValueError):
        pf.return_series(mw)


# -- recurrence classification ------------------------------------------------

class TestClassification:
    def test_finite_irreducible_positive_recurrent(self):
        mw = pf.dense_window([[1, 1], [1, 1]])
        rep = pf.classify_recurrence(mw, 2.0)
        assert rep.classification == "PositiveRecurrent"

    def test_drunken_null_recurrent_trend(self):
        mw = drunken_window(-60, 60)
        rep = pf.classify_recurrence(mw, 4.0, horizon=24)
        assert rep.classification == "NullRecurrent"

    def test_nat_substitution_positive_recurrent_trend(self):
        # probe near the bottom of the alphabet, where return loops are
        # short and the window never interferes within the horizon
        from bratteli import substitution as sb
        s = sb.nat_length_two()
        m = sb.substitution_matrix(s, dg.Window(0, 80))
        mw = pf.incidence_transpose(m)
        sd = pf.pf_solve(mw)
        assert abs(sd.lam - 2.0) < 1e-6
        rep = pf.classify_recurrence(mw, sd.lam, horizon=24, vertex=2)
        assert rep.classification == "PositiveRecurrent"

    def test_horizon_shrinks_near_window_edge(self):
        mw = drunken_window(-16, 16)
        rep = pf.classify_recurrence(mw, 4.0, horizon=40)
        assert rep.horizon < 40
        assert "horizon" in rep.note
