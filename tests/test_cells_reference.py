"""The array forms of the cell kernels against their per-entry loop forms.

``dual_kernel``, ``membership_tests``, ``refine_kernel`` and
``aggregate_product`` are array expressions; the loop forms below are the
definitions they replaced, kept as references.  On seeded random inputs,
exact, float and mixed, with zero cells, zero kernel rows and masses that
disagree with the product measure's marginals, every result must agree
with the reference in value, in the type of every entry, and for floats
bit for bit.
"""

from fractions import Fraction as Fr

import numpy as np
import pytest

from bratteli import cells as cl


# -- reference loop forms ---------------------------------------------------------

def ref_dual_kernel(nu1, P):
    exact = nu1.exact and P.exact
    nu = nu1.nu(exact)
    K = P.array(exact)
    mass = K.sum(axis=1)
    rows = []
    for i in range(nu1.m):
        if mass[i] == 0:
            if nu[i] > 0:
                raise cl.ZeroTotalMass(
                    f"kernel row {i} is zero on a cell of positive mass")
            rows.append(K[i])
        elif mass[i] == 1:
            rows.append(K[i])
        else:
            rows.append(K[i] / mass[i])
    K = np.array(rows, dtype=object if exact else np.float64)
    rho = nu[:, None] * K
    nu2 = rho.sum(axis=0)
    if not (nu2 > 0).any():
        raise cl.ZeroTotalMass("product measure has zero total mass")
    zero = 0 if exact else 0.0
    Q = np.array([[rho[x, y] / nu2[y] if nu2[y] > 0 else zero
                   for x in range(nu1.m)] for y in range(P.shape[1])],
                 dtype=object if exact else np.float64)
    return (cl.ProductMeasure(tuple(tuple(r) for r in rho)),
            cl.CellSpace(tuple(nu2)),
            cl.CellKernel(tuple(tuple(r) for r in Q)))


def ref_membership_tests(rho, nu1, nu2):
    exact = rho.exact and nu1.exact and nu2.exact
    R = rho.array(exact)
    n1 = nu1.nu(exact)
    n2 = nu2.nu(exact)
    marg1 = R.sum(axis=1)
    marg2 = R.sum(axis=0)
    ac = (all(n1[x] > 0 for x in range(nu1.m) if marg1[x] > 0)
          and all(n2[y] > 0 for y in range(nu2.m) if marg2[y] > 0))
    zero = 0 if exact else 0.0
    kr = np.array([[R[x, y] / n1[x] if n1[x] > 0 else zero
                    for y in range(nu2.m)] for x in range(nu1.m)],
                  dtype=object if exact else np.float64)
    kc = np.array([[R[x, y] / n2[y] if n2[y] > 0 else zero
                    for x in range(nu1.m)] for y in range(nu2.m)],
                  dtype=object if exact else np.float64)
    res = max(float(np.abs(n1[:, None] * kr - R).max()),
              float(np.abs((n2[:, None] * kc).T - R).max()))
    return cl.MembershipReport(ac, res,
                               cl.CellKernel(tuple(tuple(r) for r in kr)),
                               cl.CellKernel(tuple(tuple(r) for r in kc)),
                               tuple(marg1), tuple(marg2))


def ref_refine_kernel(P, target_fractions=None):
    m1, m2 = P.shape
    if target_fractions is None:
        target_fractions = [Fr(1, 2)] * m2
    rows = []
    for x in range(m1):
        row = []
        for y in range(m2):
            b = target_fractions[y]
            row += [P.matrix[x][y] * b, P.matrix[x][y] * (1 - b)]
        rows.append(tuple(row))
        rows.append(tuple(row))
    return cl.CellKernel(tuple(rows))


def ref_aggregate_product(rho):
    m1, m2 = rho.shape
    rows = []
    for x in range(m1 // 2):
        row = []
        for y in range(m2 // 2):
            row.append(rho.matrix[2 * x][2 * y] + rho.matrix[2 * x][2 * y + 1]
                       + rho.matrix[2 * x + 1][2 * y]
                       + rho.matrix[2 * x + 1][2 * y + 1])
        rows.append(tuple(row))
    return cl.ProductMeasure(tuple(rows))


# -- comparison -------------------------------------------------------------------

def key(x):
    """A value as nested tuples of (type, exact contents): floats by
    float.hex, so equal keys mean equal types and equal bits."""
    if isinstance(x, (cl.CellKernel, cl.ProductMeasure)):
        return (type(x).__name__, key(x.matrix))
    if isinstance(x, cl.CellSpace):
        return ("CellSpace", key(x.masses))
    if isinstance(x, cl.MembershipReport):
        return ("MembershipReport",) + tuple(
            key(getattr(x, f)) for f in ("pair_represents",
                                         "recovery_residual", "kernel_rows",
                                         "kernel_cols", "marginal_first",
                                         "marginal_second"))
    if isinstance(x, (tuple, list)):
        return tuple(key(v) for v in x)
    if isinstance(x, float):
        return (type(x).__name__, float.hex(x))
    if isinstance(x, Fr):
        return ("Fraction", x.numerator, x.denominator)
    assert isinstance(x, (int, bool, np.bool_)), type(x)
    return (type(x).__name__, int(x))


def outcome(f, *args):
    """key(f(*args)), or the exception's type and message."""
    try:
        return key(f(*args))
    except (cl.ZeroTotalMass, cl.DimensionMismatch) as e:
        return (type(e).__name__, str(e))


# -- random inputs ------------------------------------------------------------------

KINDS = ("exact", "float", "mixed")


def entries(rng, kind, n, zeros=0.3):
    """n nonnegative entries, each 0 with probability ``zeros``: ints and
    Fractions when exact, Python floats otherwise; mixed draws each entry
    from either."""
    out = []
    for _ in range(n):
        if rng.random() < zeros:
            out.append(0 if kind == "exact" else 0.0)
            continue
        exact = kind == "exact" or kind == "mixed" and rng.random() < 0.5
        if exact:
            num = int(rng.integers(1, 10))
            out.append(num if rng.random() < 0.3
                       else Fr(num, int(rng.integers(1, 10))))
        else:
            out.append(float(rng.random() * 10.0 ** int(rng.integers(-3, 4))))
    return out


def space(rng, kind, m):
    masses = entries(rng, kind, m)
    if not any(v > 0 for v in masses):
        masses[int(rng.integers(m))] = 1
    return cl.CellSpace(tuple(masses))


def matrix(rng, kind, m1, m2, zero_rows=0.25):
    rows = [entries(rng, kind, m2) for _ in range(m1)]
    for r in rows:
        if rng.random() < zero_rows:
            r[:] = [0 if kind == "exact" else 0.0] * m2
    return tuple(tuple(r) for r in rows)


SEEDS = range(40)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_array_forms_match_loop_forms(seed, kind):
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    m1, m2 = (int(v) for v in rng.integers(1, 6, 2))
    nu1 = space(rng, kind, m1)
    P = cl.CellKernel(matrix(rng, kind, m1, m2))

    assert outcome(cl.dual_kernel, nu1, P) == outcome(ref_dual_kernel, nu1, P)
    try:
        rho, nu2, Q = cl.dual_kernel(nu1, P)
    except cl.ZeroTotalMass:
        pass
    else:
        _, ref_nu2, ref_Q = ref_dual_kernel(nu1, P)
        assert (key(cl.duality_residual(nu1, P, nu2, Q))
                == key(cl.duality_residual(nu1, P, ref_nu2, ref_Q)))
        assert (key(cl.membership_tests(rho, nu1, nu2))
                == key(ref_membership_tests(rho, nu1, nu2)))

    # a product measure against masses drawn apart from its marginals
    rho = cl.ProductMeasure(matrix(rng, kind, m1, m2))
    other1, other2 = space(rng, kind, m1), space(rng, kind, m2)
    assert (key(cl.membership_tests(rho, other1, other2))
            == key(ref_membership_tests(rho, other1, other2)))

    fractions = entries(rng, kind, m2, zeros=0.0)
    fractions = [v / (1 + v) for v in fractions]   # shares in (0, 1)
    for tf in (None, fractions, np.array(fractions, dtype=np.float64)):
        assert key(cl.refine_kernel(P, tf)) == key(ref_refine_kernel(P, tf))

    even = cl.ProductMeasure(matrix(rng, kind, 2 * m1, 2 * m2))
    assert key(cl.aggregate_product(even)) == key(ref_aggregate_product(even))


def test_corpus_reaches_the_edge_cases():
    """The seeded corpus holds exact and float cases with zero rows on
    massless cells, zero rows on cells with mass (which raise), and
    recovered kernels that do not represent rho."""
    seen = set()
    for kind in KINDS:
        for seed in SEEDS:
            rng = np.random.default_rng([seed, KINDS.index(kind)])
            m1, m2 = (int(v) for v in rng.integers(1, 6, 2))
            nu1 = space(rng, kind, m1)
            P = cl.CellKernel(matrix(rng, kind, m1, m2))
            zero_row = [not any(r) for r in P.matrix]
            try:
                cl.dual_kernel(nu1, P)
                if any(z and v == 0 for z, v in zip(zero_row, nu1.masses)):
                    seen.add((kind, "zero row on a zero cell"))
            except cl.ZeroTotalMass:
                seen.add((kind, "raises"))
            rho = cl.ProductMeasure(matrix(rng, kind, m1, m2))
            rep = cl.membership_tests(rho, space(rng, kind, m1),
                                      space(rng, kind, m2))
            if not rep.pair_represents:
                seen.add((kind, "not represented"))
    assert seen == {(k, c) for k in KINDS
                    for c in ("zero row on a zero cell", "raises",
                              "not represented")}


def test_types_survive():
    """Exact inputs give Fractions, with int 0 on zero rows; float
    inputs give float64 entries."""
    nu1 = cl.CellSpace((Fr(1, 2), 0, Fr(1, 2)))
    P = cl.kernel_from([[1, 1], [0, 0], [Fr(1, 3), 0]])
    rho, nu2, Q = cl.dual_kernel(nu1, P)
    assert {type(v) for r in rho.matrix for v in r} == {Fr}
    rep = cl.membership_tests(rho, nu1, cl.CellSpace((1, 0)))
    assert rep.kernel_rows.matrix[1] == (0, 0)
    assert {type(v) for v in rep.kernel_rows.matrix[1]} == {int}
    assert {type(v) for v in rep.kernel_cols.matrix[1]} == {int}
    _, _, Qf = cl.dual_kernel(cl.CellSpace((0.5, 0.5)),
                              cl.kernel_from([[0.25, 0.0], [0.75, 0.0]]))
    assert {type(v) for r in Qf.matrix for v in r} == {np.float64}
    assert Qf.matrix[1] == (0.0, 0.0)
