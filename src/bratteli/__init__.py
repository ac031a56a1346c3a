"""Harmonic analysis on generalized Bratteli diagrams.

Submodules:
    diagram       -- windows, incidence matrices, paths, orders, telescoping
    substitution  -- substitution rules and their stationary diagrams
    perron        -- Perron-Frobenius data and recurrence of one square
                     incidence level, read from its CSR arrays
    measures      -- tail-invariant measures, hat matrices
    markov        -- Markov path measures, dual kernels, transfer operators
    laplacian     -- weighted networks, harmonic functions, random walks
    cells         -- kernel duality on finite cell spaces
    specfile      -- JSON description of all of the above
    cli           -- command-line front end (``python -m bratteli``)

Each submodule is imported on first use (PEP 562): ``import bratteli``
loads none of them, and ``bratteli.cells`` or ``from bratteli import
cells`` loads ``cells``.

``Error`` is the base of every error a command reports as an error object
rather than a traceback; the object's kind is the class name.
"""
import importlib

__all__ = ["cells", "cli", "diagram", "laplacian", "markov", "measures",
           "perron", "specfile", "substitution"]

__version__ = "1.0.0"


class Error(Exception):
    """A failure the CLI reports as an error object, kind = class name."""


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
