"""Shared builders: reference diagrams, the uniform 2x2 chain, and a
random-MarkovSystem generator used by the consistency/operator suites."""

import numpy as np

from bratteli import diagram as dg
from bratteli import laplacian as lp
from bratteli import markov as mk

FIB = [[1, 1], [1, 0]]
ALL_ONES = [[1, 1], [1, 1]]
DRUNKEN = {-2: 1, 0: 2, 2: 1}
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def fib_diagram(depth=8):
    return dg.stationary_diagram(FIB, depth)


def allones_diagram(depth=6):
    return dg.stationary_diagram(ALL_ONES, depth)


def uniform_allones_system(depth=6):
    """All-ones 2x2 with q0 = (1/2, 1/2) and p = 1/2 on every edge."""
    d = allones_diagram(depth)
    level = {(w, v): 0.5 for w in (0, 1) for v in (0, 1)}
    return mk.explicit_system(d, [0.5, 0.5], (level,) * depth)


def allones_network(depth=6):
    return lp.build_network(mk.dual_kernels(uniform_allones_system(depth)))


def random_levels(rng, depth=6, min_m=2, max_m=6):
    """The levels of a random valid diagram as (entries, target window,
    source window): 2-6 vertices per level, every row and column covered,
    occasional double edges."""
    sizes = [int(s) for s in rng.integers(min_m, max_m + 1, depth + 1)]
    levels = []
    for n in range(depth):
        m_lo, m_hi = sizes[n], sizes[n + 1]
        entries = {}
        for v in range(m_hi):                       # no zero rows
            entries[(v, int(rng.integers(m_lo)))] = 1
        for w in range(m_lo):                       # no zero columns
            entries[(int(rng.integers(m_hi)), w)] = 1
        for v in range(m_hi):
            for w in range(m_lo):
                if rng.random() < 0.3:
                    entries[(v, w)] = 1
        for key in sorted(entries):
            if rng.random() < 0.2:
                entries[key] = 2
        levels.append((entries, dg.Window(0, m_hi - 1),
                       dg.Window(0, m_lo - 1)))
    return levels


def random_probs(seed, depth=6, min_m=2, max_m=6):
    """(diagram, q0, probs) of a random valid Markov system: the levels of
    ``random_levels``, with Dirichlet outgoing rows with one value per edge
    rank."""
    rng = np.random.default_rng(seed)
    levels = random_levels(rng, depth, min_m, max_m)
    d = dg.validate(dg.incidence_from_entries(n, *level)
                    for n, level in enumerate(levels))
    probs = []
    for n in range(depth):
        m = d.F(n)
        level = {}
        for w in m.sources:
            slots = m.col_entries(w)
            total = sum(mult for _, mult in slots)
            raw = rng.dirichlet(np.ones(total)) + 0.01
            raw /= raw.sum()
            i = 0
            for v, mult in slots:
                level[(w, v)] = tuple(float(x) for x in raw[i:i + mult])
                i += mult
        probs.append(level)
    q0 = rng.dirichlet(np.ones(len(d.window(0)))) + 0.01
    q0 /= q0.sum()
    return d, q0, tuple(probs)


def random_system(seed, depth=6, min_m=2, max_m=6):
    """The MarkovSystem of ``random_probs``."""
    return mk.explicit_system(*random_probs(seed, depth, min_m, max_m))
