"""Harmonic analysis on generalized Bratteli diagrams.

Submodules:
    diagram       -- windows, incidence matrices, paths, orders, telescoping
    substitution  -- substitution rules and their stationary diagrams
    perron        -- Perron-Frobenius data on matrix windows, recurrence
    measures      -- tail-invariant measures, hat matrices, tower masses
    markov        -- Markov path measures, dual kernels, transfer operators
    laplacian     -- weighted networks, harmonic functions, random walks
    cells         -- kernel duality on finite cell spaces
    specfile      -- JSON description of all of the above
    cli           -- command-line front end (``python -m bratteli``)
"""
from . import (cells, diagram, laplacian, markov, measures, perron, specfile,
               substitution)

__all__ = ["cells", "cli", "diagram", "laplacian", "markov", "measures",
           "perron", "specfile", "substitution"]

__version__ = "1.0.0"
