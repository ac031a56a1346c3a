"""Output checks: catch a changed answer, pass a faithful refactor.

At the default seed an operation's output must match the values frozen in
``frozen.json``: integers, booleans, strings and seeded results exactly,
other floats to 1e-12 relative with a 1e-14 absolute floor, so that a
residual at round-off level cannot trip the check.  Unseeded operations
answer the same for every seed, so they are held to the frozen values at
every seed.  ``backend``, ``iterations``, ``shortcut`` and the harmonic
solve's residual are not gated, because a faster backend or a direct
solver legitimately changes them.

Float arrays longer than ``DIGEST_MIN`` are frozen as a digest (length,
plain and weighted sums, min, max), which keeps ``frozen.json`` small.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-12
ABS_FLOOR = 1e-14
# Harmonic values are held to the dense direct solve twice.  The damped
# Jacobi iteration stops once its residual is below 1e-8, which leaves its
# values up to 3.6e-6 from the exact solution at depth 60; the distance gate
# allows that.  The residual gate is ten times the solver's stopping
# tolerance and catches any single value moved by more than about 5e-8.
HARMONIC_TOL = 1e-5
HARMONIC_RESIDUAL_TOL = 1e-7
MAX_Z = 5.0
HIT_SIGMAS = 4.0
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
DIGEST_MIN = 64
UNGATED = frozenset({"backend", "iterations", "shortcut"})
# Seeded results that a faithful change reproduces bit for bit.
EXACT = {"walk": ("return_probability", "mean_returns_per_step"),
         "hitting": ("estimate",)}


def _digest(values: list) -> dict:
    x = np.asarray(values, dtype=np.float64)
    w = 1.0 + (np.arange(len(x)) * 7919 % 101) / 101.0
    return {"n": len(x), "sum": float(x.sum()), "wsum": float(w @ x),
            "min": float(x.min()), "max": float(x.max())}


def _compact(obj):
    if isinstance(obj, dict):
        return {k: _compact(v) for k, v in obj.items() if k not in UNGATED}
    if isinstance(obj, list):
        if len(obj) > DIGEST_MIN and all(type(v) is float for v in obj):
            return _digest(obj)
        return [_compact(v) for v in obj]
    return obj


def gated_view(kind: str, payload: dict) -> dict:
    """The part of an operation's JSON answer that frozen values pin."""
    view = _compact(payload)
    if kind == "check":
        for r in view.get("results", []):
            if r.get("invariant") == "HarmonicSolve":
                r.pop("residual", None)
    if kind == "laplacian":
        view.pop("residual", None)
        view.pop("levels", None)     # held to the dense solve instead
    return view


def compare(actual, expected, exact: tuple = (), path: str = "") -> list[str]:
    """Differences between a gated view and its frozen counterpart; floats
    under a top-level key named in ``exact`` must match bit for bit."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path or '.'}: fields differ from the frozen answer"]
        return [p for k in sorted(expected)
                for p in compare(actual[k], expected[k], exact, f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs from the frozen answer"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in compare(a, e, exact, f"{path}[{i}]")]
    if type(expected) is float and type(actual) is float:
        if actual == expected or (math.isnan(actual) and math.isnan(expected)):
            return []
        top = path.lstrip(".").split(".")[0].split("[")[0]
        tol = 0.0 if top in exact else max(REL_TOL * abs(expected), ABS_FLOOR)
        if abs(actual - expected) <= tol:
            return []
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{path}: {actual!r} != frozen {expected!r}"]


@dataclass(frozen=True)
class HarmonicReference:
    """The dense system 2 f_n = phat_n f_{n+1} + qhat_{n-1} f_{n-1} on the
    interior levels, with f_0 = bottom and f_N = top, and its direct
    solution per level."""

    A: np.ndarray
    b: np.ndarray
    levels: list


def harmonic_reference(net, bottom: float, top: float) -> HarmonicReference:
    hk = net.kernels
    N = net.depth
    sizes = [len(q) for q in hk.q]
    off = np.concatenate(([0], np.cumsum(sizes[1:N]))).astype(int)
    A = 2.0 * np.eye(off[-1])
    b = np.zeros(off[-1])
    f_bottom = np.full(sizes[0], float(bottom))
    f_top = np.full(sizes[N], float(top))
    for n in range(1, N):
        rows = slice(off[n - 1], off[n])
        if n + 1 < N:
            A[rows, off[n]:off[n + 1]] -= hk.phat[n]
        else:
            b[rows] += hk.phat[n] @ f_top
        if n > 1:
            A[rows, off[n - 2]:off[n - 1]] -= hk.qhat[n - 1]
        else:
            b[rows] += hk.qhat[0] @ f_bottom
    x = np.linalg.solve(A, b)
    return HarmonicReference(A, b, [f_bottom] + [x[off[n - 1]:off[n]]
                                                 for n in range(1, N)]
                             + [f_top])


def dense_harmonic(net, bottom: float, top: float) -> list[np.ndarray]:
    """Direct solve of the harmonic equations, per level."""
    return harmonic_reference(net, bottom, top).levels


def _as_levels(levels, reference: list):
    """``levels`` as float arrays shaped like ``reference``, or None."""
    if not isinstance(levels, (list, tuple)) or len(levels) != len(reference):
        return None
    try:
        out = [np.asarray(v, dtype=np.float64) for v in levels]
    except (TypeError, ValueError):
        return None
    if any(g.shape != r.shape for g, r in zip(out, reference)):
        return None
    return out


def harmonic_error(levels, reference: list) -> float:
    """Largest deviation of harmonic values from the dense solution."""
    got = _as_levels(levels, reference)
    if got is None:
        return math.inf
    return max(float(np.abs(g - r).max()) for g, r in zip(got, reference))


def harmonic_residual(levels, ref: HarmonicReference) -> float:
    """Largest residual of harmonic values in the dense system; on the two
    boundary levels, the distance from the boundary data."""
    got = _as_levels(levels, ref.levels)
    if got is None:
        return math.inf
    interior = ref.A @ np.concatenate(got[1:-1]) - ref.b
    return max(float(np.abs(interior).max()),
               float(np.abs(got[0] - ref.levels[0]).max()),
               float(np.abs(got[-1] - ref.levels[-1]).max()))


def check_op(kind: str, seeded: bool, rc, text: str, seed: int,
             default_seed: int, frozen: dict | None, reference=None
             ) -> list[str]:
    """Problems with one operation's result; empty when it passes.

    ``reference`` is the dense harmonic solve the operation's answer is
    held to: a ``HarmonicReference`` for ``laplacian``, the start vertex's
    value for ``hitting``.
    """
    if rc != 0:
        return [rc if isinstance(rc, str) else f"exit code {rc}"]
    try:
        payload = json.loads(text)
    except ValueError as e:
        return [f"output is not JSON: {e}"]
    if not isinstance(payload, dict):
        return ["output is not a JSON object"]
    problems = []
    view = gated_view(kind, payload)
    if frozen is None:
        problems.append("no frozen values for this operation")
    elif seed == default_seed or not seeded:
        problems += compare(view, frozen, EXACT.get(kind, ()))
    else:
        problems += _seed_free(kind, view, frozen)

    if kind == "pf":
        lam = payload.get("lambda")
        if not isinstance(lam, float) or abs(lam - GOLDEN) > REL_TOL * GOLDEN:
            problems.append(f"PF lambda {lam!r} is not the golden ratio")
    elif kind == "check":
        failed = [r.get("invariant") for r in payload.get("results", [])
                  if r.get("passed") is not True]
        if payload.get("passed") is not True or failed:
            problems.append(f"invariants failed: {failed}")
    elif kind == "kernels":
        max_z = payload.get("sample", {}).get("max_z")
        if not isinstance(max_z, float) or not max_z <= MAX_Z:
            problems.append(f"sampler max_z {max_z!r} above {MAX_Z}")
    elif kind == "hitting":
        est, se = payload.get("estimate"), payload.get("stderr")
        if not (isinstance(est, float) and isinstance(se, float)
                and abs(est - reference) <= HIT_SIGMAS * se):
            problems.append(f"hitting estimate {est!r} is more than "
                            f"{HIT_SIGMAS} stderr ({se!r}) from the dense "
                            f"solve {reference!r}")
    elif kind == "laplacian":
        levels = payload.get("levels")
        err = harmonic_error(levels, reference.levels)
        res = harmonic_residual(levels, reference)
        if not (err <= HARMONIC_TOL and res <= HARMONIC_RESIDUAL_TOL):
            problems.append(f"harmonic values {err:.3e} from the dense "
                            f"solve, residual {res:.3e}")
    return problems


def _seed_free(kind: str, view: dict, frozen: dict) -> list[str]:
    """At another seed, compare the parts of a seeded answer the seed does
    not reach."""
    if kind == "check":
        def flags(v):
            return [(r.get("suite"), r.get("invariant"), r.get("passed"))
                    for r in v.get("results", [])]
        got, want = flags(view), flags(frozen)
        return [] if got == want else [f"invariants {got} != frozen {want}"]
    keys = {"walk": ("start", "steps", "trials"),
            "kernels": ("levels", "start_cell_variation"),
            "hitting": ("trials",)}[kind]
    out = compare({k: view.get(k) for k in keys},
                  {k: frozen.get(k) for k in keys})
    if kind == "walk":
        trace = view.get("trace", [])
        if (len(trace) != view.get("steps", -2) + 1
                or trace[:1] != [view.get("start")]
                or any(abs(a[0] - b[0]) != 1
                       for a, b in zip(trace, trace[1:]))):
            out.append("walk trace is not a nearest-level path of "
                       "steps + 1 states from the start")
    return out
