"""Kernel duality on finite cell spaces.

Measure spaces are discretized into finitely many cells, transition
kernels become nonnegative matrices, and disintegration becomes row or
column normalization.  Fed rational data (int / Fraction), every duality
identity here is exact arithmetic; fed floats, it is plain linear
algebra.  Refining each cell into halves and checking that the results
aggregate back stands in for the continuum limit.

The unbounded-operator side (closability, self-adjoint extensions)
collapses at finite rank and is intentionally out of scope; the operator
factorization below keeps only its finite-rank shadow.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _accel
from . import laplacian as lp
from . import markov as mk
from .diagram import IncidenceMatrix, Window, validate
from .measures import DimensionMismatch


class ZeroTotalMass(Exception):
    pass


class NotPSD(Exception):
    def __init__(self, detail: str, value: float | None = None):
        super().__init__(detail)
        self.value = value


# ---------------------------------------------------------------- types

def _exact_entry(x) -> bool:
    return isinstance(x, (int, np.integer, Fraction)) and not isinstance(x, bool)


def _as_array(data, exact: bool) -> np.ndarray:
    if exact:
        return np.asarray(
            np.frompyfunc(lambda v: Fraction(v), 1, 1)(np.asarray(data, dtype=object)))
    return np.asarray(data, dtype=np.float64)


@dataclass(frozen=True)
class CellSpace:
    """Finite measure space at cell resolution: one mass per cell.

    Masses are nonnegative with nonempty support; they need not sum to 1
    (sigma-finite totals are allowed).  Fraction/int masses keep the
    arithmetic exact downstream.
    """

    masses: tuple

    def __post_init__(self):
        if len(self.masses) == 0:
            raise ZeroTotalMass("a cell space needs at least one cell")
        if any(v < 0 for v in self.masses):
            raise ZeroTotalMass("cell masses must be nonnegative")
        if not any(v > 0 for v in self.masses):
            raise ZeroTotalMass("support is empty")

    @property
    def m(self) -> int:
        return len(self.masses)

    @property
    def exact(self) -> bool:
        return all(_exact_entry(v) for v in self.masses)

    @property
    def total(self):
        return sum(self.masses)

    def nu(self, exact: bool | None = None) -> np.ndarray:
        return _as_array(self.masses, self.exact if exact is None else exact)


@dataclass(frozen=True)
class CellKernel:
    """Nonnegative transition matrix between two cell spaces.

    Row x holds the measure K(x, .); the kernel is a probability kernel
    when every row sums to 1.
    """

    matrix: tuple[tuple, ...]

    def __post_init__(self):
        if len({len(r) for r in self.matrix}) != 1:
            raise DimensionMismatch("ragged kernel rows")
        if any(v < 0 for r in self.matrix for v in r):
            raise ZeroTotalMass("kernel entries must be nonnegative")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.matrix), len(self.matrix[0]))

    @property
    def exact(self) -> bool:
        return all(_exact_entry(v) for r in self.matrix for v in r)

    def array(self, exact: bool | None = None) -> np.ndarray:
        return _as_array(self.matrix, self.exact if exact is None else exact)

    def row_mass(self, exact: bool | None = None) -> np.ndarray:
        return self.array(exact).sum(axis=1)

    def is_probability(self) -> bool:
        """Every row sums to 1 within 1e-12."""
        return all(abs(float(s) - 1.0) <= 1e-12 for s in self.row_mass())


def kernel_from(matrix) -> CellKernel:
    return CellKernel(tuple(tuple(v for v in row) for row in matrix))


def compose(k1: CellKernel, k2: CellKernel) -> CellKernel:
    """Chain two kernels: (k1 k2)(x, B) = sum_y k1(x,y) k2(y,B)."""
    if k1.shape[1] != k2.shape[0]:
        raise DimensionMismatch("kernel shapes do not chain")
    exact = k1.exact and k2.exact
    prod = k1.array(exact) @ k2.array(exact)
    return CellKernel(tuple(tuple(row) for row in prod))


@dataclass(frozen=True)
class ProductMeasure:
    """Measure on the product of two cell spaces, as a matrix."""

    matrix: tuple[tuple, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.matrix), len(self.matrix[0]))

    @property
    def exact(self) -> bool:
        return all(_exact_entry(v) for r in self.matrix for v in r)

    def array(self, exact: bool | None = None) -> np.ndarray:
        return _as_array(self.matrix, self.exact if exact is None else exact)

    def marginal_first(self) -> np.ndarray:
        """Push-forward onto the first factor (row sums)."""
        return self.array().sum(axis=1)

    def marginal_second(self) -> np.ndarray:
        return self.array().sum(axis=0)

    @property
    def total(self):
        return sum(v for row in self.matrix for v in row)


# ---------------------------------------------------------------- duality

def dual_kernel(nu1: CellSpace, P: CellKernel
                ) -> tuple[ProductMeasure, CellSpace, CellKernel]:
    """The product measure and dual kernel determined by (nu1, P).

    rho(x, y) = nu1(x) P(x, y); nu2 = second marginal (= nu1 P); and
    Q(y, x) = rho(x, y) / nu2(y) wherever nu2 is positive.  The duality
    identity nu1(x) P(x,y) = nu2(y) Q(y,x) then holds exactly, as do the
    marginal relations nu1 P = nu2 and nu2 Q = nu1.

    Rows of P that do not sum to 1 are normalized first (a finite kernel
    carries the same disintegration after scaling); a zero row on a
    mass-carrying cell cannot be normalized and raises ZeroTotalMass.
    """
    if P.shape[0] != nu1.m:
        raise DimensionMismatch(
            f"kernel has {P.shape[0]} rows for {nu1.m} cells")
    exact = nu1.exact and P.exact
    nu = nu1.nu(exact)
    K = P.array(exact)
    mass = K.sum(axis=1)
    rows = []
    for i in range(nu1.m):
        if mass[i] == 0:
            if nu[i] > 0:
                raise ZeroTotalMass(
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
        raise ZeroTotalMass("product measure has zero total mass")
    zero = 0 if exact else 0.0
    Q = np.array([[rho[x, y] / nu2[y] if nu2[y] > 0 else zero
                   for x in range(nu1.m)] for y in range(P.shape[1])],
                 dtype=object if exact else np.float64)
    return (ProductMeasure(tuple(tuple(r) for r in rho)),
            CellSpace(tuple(nu2)),
            CellKernel(tuple(tuple(r) for r in Q)))


def duality_residual(nu1: CellSpace, P: CellKernel,
                     nu2: CellSpace, Q: CellKernel) -> float:
    """max |nu1(x) P(x,y) - nu2(y) Q(y,x)|; zero for a dual pair.

    Computed in rational arithmetic whenever every input is exact, so an
    exact dual pair reports exactly 0.0.
    """
    exact = nu1.exact and P.exact and nu2.exact and Q.exact
    a = nu1.nu(exact)[:, None] * P.array(exact)
    b = (nu2.nu(exact)[:, None] * Q.array(exact)).T
    return float(np.abs(a - b).max())


@dataclass(frozen=True)
class MembershipReport:
    """Which representation classes a product measure and a measure pair
    admit, decided cellwise.

    pair_represents: some kernel pair disintegrates rho over (nu1, nu2) --
    equivalently both marginals vanish wherever the measures do.  Read as
    a condition on rho for fixed (nu1, nu2) it is the same relation.
    recovery_residual: max deviation of nu1(x) kernel_rows(x,y) and
    nu2(y) kernel_cols(y,x) from rho(x,y); zero iff the recovered
    ratio kernels actually represent rho.
    """

    pair_represents: bool
    recovery_residual: float
    kernel_rows: CellKernel
    kernel_cols: CellKernel
    marginal_first: tuple
    marginal_second: tuple


def membership_tests(rho: ProductMeasure, nu1: CellSpace, nu2: CellSpace
                     ) -> MembershipReport:
    """Absolute-continuity membership checks plus kernel recovery.

    The recovered kernels are the cellwise ratio derivatives
    kernel_rows(x, .) = rho(x, .) / nu1(x) and the column analog; they
    reproduce rho exactly iff the marginals are absolutely continuous
    with respect to nu1 and nu2.
    """
    if rho.shape != (nu1.m, nu2.m):
        raise DimensionMismatch("product measure shape does not match spaces")
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
    return MembershipReport(ac, res,
                            CellKernel(tuple(tuple(r) for r in kr)),
                            CellKernel(tuple(tuple(r) for r in kc)),
                            tuple(marg1), tuple(marg2))


# ---------------------------------------------------------------- symmetric

def symmetric_measures(P: CellKernel, Q: CellKernel,
                       nu1: CellSpace, nu2: CellSpace
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The pair of symmetric measures generated by a dual kernel pair.

    lambda1(a, b) = sum_y nu2(y) Q(y, a) Q(y, b) on the first space, and
    lambda2 is the mirror quadratic form through P and nu1.  Both come
    out exactly symmetric: in rational arithmetic that is automatic; in
    floats the form is assembled as B^T B with B = sqrt(weights) * rows
    and the upper triangle mirrored, so symmetry is structural rather
    than a rounding accident.
    """
    if P.shape != (nu1.m, nu2.m) or Q.shape != (nu2.m, nu1.m):
        raise DimensionMismatch("kernel shapes do not match the spaces")
    exact = P.exact and Q.exact and nu1.exact and nu2.exact

    def form(K, w):
        if exact:
            return (K * w[:, None]).T @ K
        B = K * np.sqrt(w)[:, None]
        G = B.T @ B
        return np.triu(G) + np.triu(G, 1).T

    return (form(Q.array(exact), nu2.nu(exact)),
            form(P.array(exact), nu1.nu(exact)))


@dataclass(frozen=True)
class GramReport:
    matrix: np.ndarray
    min_eigenvalue: float

    @property
    def psd(self) -> bool:
        return self.min_eigenvalue >= -1e-10


def rkhs_gram(lambda1: np.ndarray, sets: Sequence[Sequence[int]]
              ) -> GramReport:
    """Gram matrix K[i, j] = lambda1(A_i x A_j) for cell subsets A_i.

    Positive semidefiniteness is inherited from the quadratic form that
    built lambda1; the minimal eigenvalue is reported as the check.
    """
    lam = np.asarray(lambda1)
    m = lam.shape[0]
    ind = np.zeros((len(sets), m))
    for i, cells in enumerate(sets):
        for c in cells:
            ind[i, c] = 1.0
    K = ind @ lam.astype(np.float64, copy=False) @ ind.T
    K = 0.5 * (K + K.T)
    eigs = np.linalg.eigvalsh(K) if len(sets) else np.array([0.0])
    return GramReport(K, float(eigs.min()))


# ---------------------------------------------------------------- factorization

@dataclass(frozen=True)
class FactorizationReport:
    residual: float
    rank: int
    spectrum: np.ndarray
    P: np.ndarray          # operator factors; signed in general, so not
    Q: np.ndarray          # wrapped as CellKernels
    nu2: CellSpace
    basis: str


FACTOR_TOL = 1e-10   # relative asymmetry and negative spectrum allowed
RANK_TOL = 1e-12     # eigenvalues below this share of the largest drop


def factorization_check(R_hat, nu1: CellSpace, basis: str = "natural",
                        seed: int = 0) -> FactorizationReport:
    """Factor a weighted-self-adjoint PSD operator through a dual pair.

    R_hat (m1 x m1) must be self-adjoint in the nu1-weighted inner
    product and positive semidefinite, which makes W = R_hat diag(nu1)^-1
    an ordinary symmetric PSD matrix.  Its eigendecomposition supplies
    the factor G with G G^T diag(nu1) = R_hat; any basis Phi orthonormal
    in the auxiliary space (Phi^T diag(nu2) Phi = I) then yields
    P = G Phi^T diag(nu2) and Q = Phi G^T diag(nu1) with P Q = R_hat and
    the duality identity holding identically.  The residual is basis
    independent; "random" draws Phi from a seeded orthogonal rotation to
    demonstrate that.
    """
    R = np.asarray(R_hat, dtype=np.float64)
    m = R.shape[0]
    if R.shape != (m, m) or nu1.m != m:
        raise DimensionMismatch("operator shape does not match the space")
    nu = nu1.nu(False)
    if (nu <= 0).any():
        raise ZeroTotalMass("factorization needs positive cell masses")
    W = R / nu[None, :]
    scale = max(float(np.abs(W).max()), 1e-300)
    asym = float(np.abs(W - W.T).max())
    if asym > FACTOR_TOL * scale:
        raise NotPSD("operator is not self-adjoint in the weighted inner "
                     f"product (asymmetry {asym:.3e})", asym)
    W = 0.5 * (W + W.T)
    sig, U = np.linalg.eigh(W)
    if sig[0] < -FACTOR_TOL * max(sig[-1], 1.0):
        raise NotPSD(f"negative spectrum: min eigenvalue {sig[0]:.3e}",
                     float(sig[0]))
    sig = np.clip(sig, 0.0, None)[::-1]
    U = U[:, ::-1]
    keep = sig > RANK_TOL * max(sig[0], 1e-300)
    if not keep.any():
        raise ZeroTotalMass("operator is numerically zero")
    r = int(keep.sum())
    sig, U = sig[:r], U[:, :r]
    G = U * np.sqrt(sig)[None, :]
    nu2 = np.full(r, 1.0 / r)
    if basis == "natural":
        C = np.eye(r)
    elif basis == "random":
        rng = np.random.default_rng(seed)
        C, _ = np.linalg.qr(rng.standard_normal((r, r)))
    else:
        raise ValueError(f"unknown basis {basis!r}")
    phi = C / np.sqrt(nu2)[:, None]          # Phi^T diag(nu2) Phi = I
    P = G @ phi.T @ np.diag(nu2)
    Q = phi @ G.T @ np.diag(nu)
    residual = float(np.abs(R - P @ Q).max())
    return FactorizationReport(residual, r, sig, P, Q,
                               CellSpace(tuple(nu2)), basis)


# ---------------------------------------------------------------- sampling

@dataclass(frozen=True)
class SampleReport:
    counts: np.ndarray
    exact: np.ndarray
    trials: int
    depth: int
    shape: tuple[int, ...]
    max_z: float
    tv_distance: float

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.trials


def _chain_shapes(spaces: Sequence[CellSpace],
                  kernels: Sequence[CellKernel], depth: int):
    if depth < 0:
        raise DimensionMismatch("depth must be nonnegative")
    if len(kernels) < depth or len(spaces) < depth + 1:
        raise DimensionMismatch("chain too short for the requested depth")
    for k in range(depth):
        if kernels[k].shape != (spaces[k].m, spaces[k + 1].m):
            raise DimensionMismatch(f"kernel {k} does not match its spaces")
        if not kernels[k].is_probability():
            raise ZeroTotalMass(f"kernel {k} is not a probability kernel")


def exact_cylinders(spaces: Sequence[CellSpace],
                    kernels: Sequence[CellKernel], x0: int, depth: int
                    ) -> np.ndarray:
    """Tensor of cylinder probabilities (x_1 .. x_depth) from start x0."""
    _chain_shapes(spaces, kernels, depth)
    if depth == 0:
        return np.array(1.0)
    T = kernels[0].array(False)[x0].copy()
    for k in range(1, depth):
        T = T[..., :, None] * kernels[k].array(False)
    return T


def path_measure_sample(spaces: Sequence[CellSpace],
                        kernels: Sequence[CellKernel], x0: int, depth: int,
                        seed: int = 0, trials: int = 10_000) -> SampleReport:
    """Empirical cylinder frequencies of the kernel chain from cell x0,
    against the exact tensor contraction.

    max_z is the largest |empirical - exact| in units of the binomial
    standard error; tv_distance the total-variation gap.  The trials walk
    a move table, and per-trial seed streams make the counts reproducible.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _chain_shapes(spaces, kernels, depth)
    if not 0 <= x0 < spaces[0].m:
        raise DimensionMismatch(f"start cell {x0} is not a cell of space 0")
    exact = exact_cylinders(spaces, kernels, x0, depth)
    if depth == 0:
        one = np.array([trials], dtype=np.int64)
        return SampleReport(one, np.array([1.0]), trials, 0, (), 0.0, 0.0)
    sizes = [s.m for s in spaces[:depth + 1]]
    shape = tuple(sizes[1:])
    # cells of space k move to those of k + 1; zero entries are moves too,
    # so each row's cumulative sums are those of np.cumsum(K, axis=1)
    offsets = np.cumsum([0] + sizes)
    rowptr, cum, tgt = _accel.move_table(
        (m, np.repeat(np.arange(m), w), kernels[k].array(False).ravel(),
         offsets[k + 1] + np.tile(np.arange(w), m))
        for k, (m, w) in enumerate(zip(sizes, shape)))
    strides = np.ones(depth, dtype=np.int64)
    for k in range(depth - 2, -1, -1):
        strides[k] = strides[k + 1] * shape[k + 1]
    ncyl = int(np.prod(shape))
    s1s, s2s = _accel.trial_seeds(seed, trials)
    counts = _accel.sample_chain_kernel(rowptr, cum, tgt, offsets, strides,
                                        x0, ncyl, s1s, s2s)
    emp = counts / trials
    p = exact.ravel()
    se = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / trials)
    ok = se > 0
    max_z = float(np.max(np.abs(emp[ok] - p[ok]) / se[ok])) if ok.any() else 0.0
    tv = 0.5 * float(np.abs(emp - p).sum())
    return SampleReport(counts.reshape(shape), exact, trials, depth, shape,
                        max_z, tv)


def start_cell_variation(spaces: Sequence[CellSpace],
                         kernels: Sequence[CellKernel], depth: int) -> float:
    """max total-variation distance between the cylinder distributions
    launched from different start cells.

    Constant kernels (every row of each step equal) give exactly zero:
    the sampled suffix forgets the start cell, which is the discrete
    face of tail invariance.  For general chains the value is reported
    as a diagnostic, not a guarantee.
    """
    _chain_shapes(spaces, kernels, depth)
    dists = [exact_cylinders(spaces, kernels, x0, depth).ravel()
             for x0 in range(spaces[0].m)]
    worst = 0.0
    for i in range(len(dists)):
        for j in range(i + 1, len(dists)):
            worst = max(worst, 0.5 * float(np.abs(dists[i] - dists[j]).sum()))
    return worst


# ---------------------------------------------------------------- chain ops

PUSH_TOL = 1e-12   # relative gap allowed between nu_k P_k and nu_{k+1}


def chain_network(spaces: Sequence[CellSpace],
                  kernels: Sequence[CellKernel]) -> lp.WeightedNetwork:
    """Route a kernel chain through the level-network machinery.

    Levels are the cell spaces and edges the positive kernel entries, so
    the chain is a Markov system on that diagram: q^(0) = nu_0 and one
    probability per edge.  Its dual kernels and level masses come from
    markov.dual_kernels, as for any other system.  Masses must be
    positive and consistent (nu_{n+1} = nu_n P_n within PUSH_TOL), since
    otherwise the dual is not stochastic and no reversible network exists.
    """
    depth = len(kernels)
    if depth == 0:
        raise DimensionMismatch("a chain network needs at least one kernel")
    _chain_shapes(spaces, kernels, depth)
    nus = [s.nu(False) for s in spaces[:depth + 1]]
    mats, Ks = [], []
    for k in range(depth):
        if (nus[k] <= 0).any() or (nus[k + 1] <= 0).any():
            raise ZeroTotalMass("chain networks need positive cell masses")
        K = kernels[k].array(False)
        push = nus[k] @ K
        if (np.abs(push - nus[k + 1]).max()
                > PUSH_TOL * max(nus[k + 1].max(), 1e-300)):
            raise ValueError(f"masses at level {k + 1} are not the "
                             f"push-forward of level {k}")
        src, tgt = (a.tolist() for a in np.nonzero(K))
        mats.append(IncidenceMatrix(k, dict.fromkeys(zip(tgt, src), 1),
                                    Window(0, spaces[k + 1].m - 1),
                                    Window(0, spaces[k].m - 1)))
        Ks.append(K)
    d = validate(mats)
    # cells are numbered from 0, so CSR positions are the cell indices
    system = mk.shared_value_system(
        d, nus[0], [K[d.F(k).csr.indices, d.F(k).csr.rows]
                    for k, K in enumerate(Ks)])
    return lp.build_network(mk.dual_kernels(system))


def measurable_laplacian(net: lp.WeightedNetwork, F: lp.LevelFunction
                         ) -> lp.LevelFunction:
    """(Delta F)_n = (up mass + down mass) F_n - P_n F_{n+1} - Q_{n-1} F_{n-1}.

    For probability kernels the row masses are 1 each way, so the weight
    is 2 on two-sided levels and 1 at the ends; equivalently twice the
    averaging defect against M.  (The network Laplacian is the same
    vector scaled cellwise by nu/2.)
    """
    mf = lp.apply_M(net, F)
    N = net.depth
    out = []
    for n in range(N + 1):
        w = 2.0 if 0 < n < N else 1.0
        out.append(w * (F.values[n] - mf.values[n]))
    return lp.LevelFunction(tuple(out))


def chain_energy(net: lp.WeightedNetwork, F: lp.LevelFunction
                 ) -> lp.EnergyReport:
    """Energy of a chain function: sum over levels of
    integral (F_n(x) - F_{n+1}(y))^2 drho_n, with rho_n = nu_n-weighted
    rows of P_n.

    Twice the network's half-weighted energy; both the direct and the
    expanded operator form are scaled so their identity carries over.
    """
    er = lp.energy_norm(net, F)
    return lp.EnergyReport(2.0 * er.direct, 2.0 * er.operator_form)


# ---------------------------------------------------------------- refinement

def refine_space(nu: CellSpace, fractions=None) -> CellSpace:
    """Split every cell into two; fractions[i] is the share of the first
    half (exact Fraction(1, 2) by default)."""
    if fractions is None:
        fractions = [Fraction(1, 2)] * nu.m
    out = []
    for v, a in zip(nu.masses, fractions):
        out += [v * a, v * (1 - a)]
    return CellSpace(tuple(out))


def refine_kernel(P: CellKernel, target_fractions=None) -> CellKernel:
    """Refine both sides of a kernel: source halves inherit their row,
    target halves split each column by target_fractions."""
    m1, m2 = P.shape
    if target_fractions is None:
        target_fractions = [Fraction(1, 2)] * m2
    rows = []
    for x in range(m1):
        row = []
        for y in range(m2):
            b = target_fractions[y]
            row += [P.matrix[x][y] * b, P.matrix[x][y] * (1 - b)]
        rows.append(tuple(row))
        rows.append(tuple(row))
    return CellKernel(tuple(rows))


def aggregate_cells(values) -> tuple:
    """Merge consecutive cell pairs back (inverse of refine_space)."""
    vals = list(values)
    if len(vals) % 2:
        raise DimensionMismatch("odd cell count cannot aggregate in pairs")
    return tuple(vals[2 * i] + vals[2 * i + 1] for i in range(len(vals) // 2))


def aggregate_product(rho: ProductMeasure) -> ProductMeasure:
    """Merge 2x2 cell blocks of a refined product measure."""
    m1, m2 = rho.shape
    if m1 % 2 or m2 % 2:
        raise DimensionMismatch("odd cell count cannot aggregate in pairs")
    rows = []
    for x in range(m1 // 2):
        row = []
        for y in range(m2 // 2):
            row.append(rho.matrix[2 * x][2 * y] + rho.matrix[2 * x][2 * y + 1]
                       + rho.matrix[2 * x + 1][2 * y]
                       + rho.matrix[2 * x + 1][2 * y + 1])
        rows.append(tuple(row))
    return ProductMeasure(tuple(rows))
