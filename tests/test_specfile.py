"""JSON spec documents: one construction per document, loud rejection of
unknown fields, optional order/markov/kernel blocks, and a canonical form
that round-trips through the parser."""

import json
import re

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import specfile as sf


def parse(doc, **kw):
    return sf.parse_spec(doc, **kw)


# -- construction paths --------------------------------------------------------

def test_matrix_construction():
    ps = parse({"matrix": [[1, 1], [1, 1]], "depth": 4})
    assert ps.diagram.depth == 4
    assert np.array_equal(ps.diagram.F(0).to_dense(), [[1, 1], [1, 1]])
    assert ps.substitution is None and ps.markov is None and ps.kernels is None


def test_matrix_with_window():
    ps = parse({"matrix": [[2]], "depth": 3, "window": [5, 5]})
    assert ps.diagram.window(0).vertices == (5,)


def test_band_construction():
    ps = parse({"band": {"-2": 1, "0": 2, "2": 1}, "depth": 3,
                "window": [-10, 10, 2]})
    _assert_drunken_band(ps.diagram.F(0))


def _assert_drunken_band(m):
    """The (1, 2, 1) band on offsets (-2, 0, 2): its rows, claims and the
    two clipped edge vertices."""
    assert m.row_entries(0) == [(-2, 1), (0, 2), (2, 1)]
    assert m.row_sum_claim == m.col_sum_claim == 4
    edges = [False] + [True] * (len(m.targets) - 2) + [False]
    assert m.interior_rows.tolist() == m.interior_cols.tolist() == edges


def test_band_needs_window():
    with pytest.raises(sf.SpecError, match="window"):
        parse({"band": {"0": 2}, "depth": 3})


def test_substitution_by_name():
    ps = parse({"substitution": {"name": "fibonacci"}, "depth": 5})
    assert ps.substitution is not None
    assert np.array_equal(ps.diagram.F(0).to_dense(), [[1, 1], [1, 0]])


def test_substitution_odometer_takes_k():
    ps = parse({"substitution": {"name": "odometer", "k": 3}, "depth": 2})
    assert ps.diagram.F(0).triplets() == [(0, 0, 3)]
    ps = parse({"substitution": {"name": "odometer", "k": 3.0}, "depth": 2})
    assert ps.diagram.F(0).triplets() == [(0, 0, 3)]
    with pytest.raises(sf.SpecError, match="odometer 'k' must be an integer"):
        parse({"substitution": {"name": "odometer", "k": 2.7}, "depth": 2})
    with pytest.raises(sf.SpecError, match="takes no 'k'"):
        parse({"substitution": {"name": "fibonacci", "k": 2}, "depth": 2})


def test_substitution_by_rules():
    ps = parse({"substitution": {"rules": {"a": "ab", "b": "a"}}, "depth": 3})
    assert np.array_equal(ps.diagram.F(0).to_dense(), [[1, 1], [1, 0]])


def test_substitution_band_rule_needs_window():
    doc = {"substitution": {"offsets_word": [-2, 0, 0, 2]}, "depth": 2}
    with pytest.raises(sf.SpecError, match="window"):
        parse(doc)
    ps = parse({**doc, "window": [-8, 8, 2]})
    _assert_drunken_band(ps.diagram.F(0))


def test_substitution_unknown_name():
    with pytest.raises(sf.SpecError, match="unknown substitution name"):
        parse({"substitution": {"name": "thue_morse"}, "depth": 2})


def test_triplets_construction():
    doc = {
        "triplets": [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 2],
                     [1, 0, 0, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]],
        "windows": [[0, 1], [0, 1], [0, 1]],
    }
    ps = parse(doc)
    assert ps.diagram.depth == 2
    assert np.array_equal(ps.diagram.F(0).to_dense(), [[1, 1], [2, 0]])


def test_triplets_need_windows():
    with pytest.raises(sf.SpecError, match="windows"):
        parse({"triplets": [[0, 0, 0, 1]]})


def test_triplets_refuse_depth_override():
    doc = {"triplets": [[0, 0, 0, 1]], "windows": [[0, 0], [0, 0]]}
    with pytest.raises(sf.SpecError, match="--depth"):
        parse(doc, depth_override=5)


def test_triplet_level_out_of_range():
    doc = {"triplets": [[3, 0, 0, 1]], "windows": [[0, 0], [0, 0]]}
    with pytest.raises(sf.SpecError, match="out of range"):
        parse(doc)


def test_exactly_one_construction():
    with pytest.raises(sf.SpecError, match="exactly one construction"):
        parse({"depth": 3})
    with pytest.raises(sf.SpecError, match="exactly one construction"):
        parse({"matrix": [[1]], "band": {"0": 1}, "depth": 3,
               "window": [0, 0]})


def test_depth_override_beats_document():
    ps = parse({"matrix": [[1, 1], [1, 1]], "depth": 2}, depth_override=5)
    assert ps.diagram.depth == 5


@pytest.mark.parametrize("depth", [0, -1, "6", None, 2.5])
def test_depth_must_be_positive_int(depth):
    doc = {"matrix": [[1]]}
    if depth is not None:
        doc["depth"] = depth
    with pytest.raises(sf.SpecError, match="depth"):
        parse(doc)


@pytest.mark.parametrize("doc, error, message", [
    ({"matrix": [[True, 1], [1, 1]], "depth": 2}, dg.WindowMismatch,
     "entry (0,0) at level 0 has multiplicity True"),
    ({"matrix": [[False, 1], [1, 1]], "depth": 2}, dg.WindowMismatch,
     "entry (0,0) at level 0 has multiplicity False"),
    ({"matrix": [[1]], "depth": True}, sf.SpecError,
     "depth must be a positive integer"),
    ({"matrix": [[1, 1], [1, 1]], "depth": 2, "window": [0, True]},
     sf.SpecError, "window must be [lo, hi] or [lo, hi, step]"),
    ({"band": {"0": True}, "window": [-10, 10, 2], "depth": 2},
     dg.WindowMismatch, "band offset 0 has multiplicity True"),
    ({"triplets": [[0, 0, 0, True]], "windows": [[0, 0], [0, 0]]},
     sf.SpecError, "triplets are [level, target, source, multiplicity]"),
], ids=["matrix-true", "matrix-false", "depth", "window", "band",
        "triplet-multiplicity"])
def test_booleans_are_not_integers(doc, error, message):
    """A JSON boolean where an integer belongs is refused with an error
    naming the field; true used to read as 1, so a matrix of booleans gave
    lambda 2."""
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        parse(doc)


TRIPLETS = {"triplets": [[0, 0, 0, 1], [0, 1, 0, 1], [0, 1, 1, 2]],
            "windows": [[0, 1], [0, 1]]}


@pytest.mark.parametrize("doc, floats", [
    ({"matrix": [[1, 1], [1, 1]], "depth": 2}, {"depth": 2.0}),
    ({"band": {"-2": 1, "0": 2, "2": 1}, "window": [-8, 8, 2], "depth": 2},
     {"window": [-8, 8.0, 2.0]}),
    ({"substitution": {"name": "odometer", "k": 3}, "depth": 2},
     {"substitution": {"name": "odometer", "k": 3.0}, "depth": 2.0}),
    (TRIPLETS, {"windows": [[0.0, 1], [0, 1.0]]}),
    (TRIPLETS, {"triplets": [[0, 0, 0, 1.0], [0.0, 1, 0, 1],
                             [0, 1.0, 1.0, 2.0]]}),
], ids=["depth", "window", "odometer-k", "windows", "triplets"])
def test_integer_fields_take_integral_floats(doc, floats):
    """Every integer field takes an integral float as the int it equals."""
    ints, fl = parse(doc).diagram, parse({**doc, **floats}).diagram
    assert fl.depth == ints.depth and type(fl.depth) is int
    for n in range(ints.depth):
        assert fl.window(n) == ints.window(n)
        assert fl.F(n).triplets() == ints.F(n).triplets()
        assert fl.F(n).csr.mult.dtype == np.int64


def test_structure_errors_keep_their_kind():
    # zero row at level 0 is a diagram defect, not a schema defect
    with pytest.raises(dg.ZeroRow):
        parse({"matrix": [[1, 0], [0, 0]], "depth": 2})


@pytest.mark.parametrize("doc, where", [
    ({"matrix": [[1.5, 1], [1, 1]], "depth": 2}, "entry (0,0) at level 0"),
    ({"matrix": [[1, float("inf")], [1, 1]], "depth": 2},
     "entry (0,1) at level 0"),
    ({"band": {"-2": 1, "0": 1.5, "2": 1}, "window": [-10, 10, 2],
      "depth": 2}, "band offset 0"),
])
def test_non_integral_multiplicity_rejected(doc, where):
    with pytest.raises(dg.WindowMismatch,
                       match="^" + re.escape(f"{where} has multiplicity")):
        parse(doc)


def test_integral_float_multiplicities_stored_as_ints():
    ps = parse({"matrix": [[2.0, 1], [1, 1]], "depth": 2})
    assert ps.diagram.F(0).triplets() == [(0, 0, 2), (0, 1, 1), (1, 0, 1),
                                          (1, 1, 1)]
    assert ps.diagram.F(0).csr.mult.dtype == np.int64
    band = parse({"band": {"-2": 1, "0": 2.0, "2": 1}, "window": [-10, 10, 2],
                  "depth": 2})
    m = band.diagram.F(0)
    _assert_drunken_band(m)
    assert m.csr.mult.dtype == np.int64
    assert all(type(k) is int for _, k in m.row_entries(0))
    assert type(m.row_sum_claim) is int and type(m.col_sum_claim) is int


def test_markov_edge_level_must_be_below_depth():
    edges = [[lv, s, t, 0.5] for lv in (0, 1) for s in (0, 1) for t in (0, 1)]
    with pytest.raises(sf.SpecError,
                       match=r"markov edge level 2 outside 0\.\.1"):
        parse({"matrix": [[1, 1], [1, 1]], "depth": 2,
               "markov": {"q0": [0.5, 0.5],
                          "edges": edges + [[2, 0, 0, 0.5]]}})


# -- unknown fields are rejected at every level --------------------------------

def test_unknown_top_level_field():
    with pytest.raises(sf.SpecError, match="unknown field"):
        parse({"matrix": [[1]], "depth": 2, "dpeth": 3})


def test_unknown_substitution_field():
    with pytest.raises(sf.SpecError, match="unknown field"):
        parse({"substitution": {"name": "fibonacci", "seed": 1}, "depth": 2})


def test_unknown_markov_field():
    with pytest.raises(sf.SpecError, match="unknown field"):
        parse({"matrix": [[1]], "depth": 2,
               "markov": {"q0": [1.0], "edges": [], "qzero": [1.0]}})


def test_unknown_kernel_field():
    with pytest.raises(sf.SpecError, match="unknown field"):
        parse({"matrix": [[1]], "depth": 2,
               "kernels": {"nu0": [1.0], "chain": [], "nu1": [1.0]}})


def test_windows_only_for_triplets():
    with pytest.raises(sf.SpecError, match="windows"):
        parse({"matrix": [[1]], "depth": 2, "windows": [[0, 0], [0, 0]]})


# -- order block ---------------------------------------------------------------

def test_order_defaults_to_natural():
    ps = parse({"substitution": {"rules": {"a": "ab", "b": "a"}}, "depth": 3})
    assert ps.order is not None
    dg.check_order(ps.diagram, ps.order)


def test_reading_order_from_substitution():
    ps = parse({"substitution": {"rules": {"a": "ba", "b": "a"}}, "depth": 3,
                "order": "reading"})
    # image of a is "ba": the b-edge comes first, unlike the natural order
    assert ps.order.order_at(ps.diagram, 0, 0) == ((1, 0), (0, 0))


def test_reading_order_requires_substitution():
    with pytest.raises(sf.SpecError, match="reading order"):
        parse({"matrix": [[1, 1], [1, 0]], "depth": 3, "order": "reading"})


def test_unknown_order():
    with pytest.raises(sf.SpecError, match="unknown order"):
        parse({"matrix": [[1]], "depth": 2, "order": "lexicographic"})


# -- markov and kernel blocks ----------------------------------------------------

def test_markov_induced_block():
    ps = parse({"matrix": [[1, 1], [1, 1]], "depth": 3,
                "markov": {"from_tail_invariant": True}})
    assert ps.markov == {"from_tail_invariant": True,
                         "normalization": "probability"}


def test_markov_induced_rejects_extras():
    with pytest.raises(sf.SpecError, match="only a normalization"):
        parse({"matrix": [[1]], "depth": 2,
               "markov": {"from_tail_invariant": True, "q0": [1.0]}})


def test_markov_induced_normalization_must_be_known():
    for norm in ("level0", "probability", "anchored"):
        ps = parse({"matrix": [[1, 1], [1, 1]], "depth": 3,
                    "markov": {"from_tail_invariant": True,
                               "normalization": norm}})
        assert ps.markov["normalization"] == norm
    # stationary or not, the value is checked when the spec is read
    for doc in ({"matrix": [[1, 1], [1, 1]], "depth": 3},
                {"triplets": [[0, 0, 0, 1], [0, 1, 0, 1], [0, 1, 1, 1],
                              [1, 0, 0, 2], [1, 0, 1, 1], [1, 1, 1, 1]],
                 "windows": [[0, 1], [0, 1], [0, 1]]}):
        with pytest.raises(sf.SpecError,
                           match="unknown markov normalization 'bogus'"):
            parse({**doc, "markov": {"from_tail_invariant": True,
                                     "normalization": "bogus"}})


def test_markov_explicit_takes_no_normalization():
    with pytest.raises(sf.SpecError, match="take no normalization"):
        parse({"matrix": [[1]], "depth": 2,
               "markov": {"q0": [1.0], "edges": [[0, 0, 0, 1.0]],
                          "normalization": "probability"}})


def test_markov_explicit_block():
    ps = parse({"matrix": [[1]], "depth": 2,
                "markov": {"q0": [1.0], "edges": [[0, 0, 0, 1.0]]}})
    assert ps.markov["q0"] == (1.0,)
    assert ps.markov["probs"] == ({(0, 0): 1.0}, {})
    ps = parse({"matrix": [[1]], "depth": 2,
                "markov": {"q0": [1.0], "edges": [[0.0, 0, 0.0, 1.0]]}})
    (key,) = ps.markov["probs"][0]   # level 0.0 is read as level 0
    assert all(type(x) is int for x in key)
    for k, what in enumerate(("level", "source", "target")):
        edge = [0, 0, 0, 1.0]
        edge[k] = 0.5
        with pytest.raises(sf.SpecError,
                           match=f"markov edge {what} must be an integer"):
            parse({"matrix": [[1]], "depth": 2,
                   "markov": {"q0": [1.0], "edges": [edge]}})


def test_markov_repeated_edge_rejected():
    edges = [[lv, s, t, 0.5] for lv in (0, 1) for s in (0, 1) for t in (0, 1)]
    for listed in (edges + [[1, 0, 1, 0.9]], [[1, 0, 1, 0.9]] + edges):
        with pytest.raises(sf.SpecError, match=re.escape(
                "markov edge (level 1, source 0, target 1) is given more "
                "than once")):
            parse({"matrix": [[1, 1], [1, 1]], "depth": 2,
                   "markov": {"q0": [0.5, 0.5], "edges": listed}})


_EDGES = [[lv, s, t, 0.5] for lv in (0, 1) for s in (0, 1) for t in (0, 1)]
_CHAIN = [[[0.5, 0.5], [0.5, 0.5]]]


@pytest.mark.parametrize("doc, message", [
    ({"markov": {"q0": 5, "edges": _EDGES}},
     "markov q0 must be a list of numbers, got 5"),
    ({"markov": {"q0": [0.5, 0.5], "edges": 5}},
     "markov edges must be a list, got 5"),
    ({"kernels": {"nu0": 1, "chain": _CHAIN}},
     "kernels nu0 must be a list of numbers, got 1"),
    ({"markov": {"q0": ["a"], "edges": _EDGES}},
     "markov q0 entry must be a number, got 'a'"),
    ({"markov": {"q0": [0.5, 0.5], "edges": [[0, 0, 0, "x"]] + _EDGES[1:]}},
     "markov edge probability must be a number, got 'x'"),
    ({"markov": {"q0": [0.5, 0.5],
                 "edges": [[0, 0, 0, [0.5, "x"]]] + _EDGES[1:]}},
     "markov edge probability entry must be a number, got 'x'"),
    ({"markov": {"q0": [0.5, 0.5], "edges": [[0, "a", 0, 0.5]] + _EDGES[1:]}},
     "markov edge source must be an integer, got 'a'"),
    ({"kernels": {"nu0": [0.5, 0.5], "chain": [[[0.5, "x"], [0.5, 0.5]]]}},
     "kernel 0 row entry must be a number, got 'x'"),
    ({"kernels": {"nu0": [0.5, 0.5], "chain": 5}},
     "kernels chain must be a list of matrices"),
    ({"kernels": {"nu0": ["a"], "chain": _CHAIN}},
     "kernels nu0 entry must be a number, got 'a'"),
    ({"band": {"a": 1, "0": 2}, "window": [-10, 10]},
     "band offset must be an integer, got 'a'"),
], ids=["q0-scalar", "edges-scalar", "nu0-scalar", "q0-entry",
        "edge-probability", "edge-rank-probability", "edge-source",
        "chain-entry", "chain-scalar", "nu0-entry", "band-offset"])
def test_malformed_field_names_the_field(doc, message):
    base = {"depth": 2} if "band" in doc else {"matrix": [[1, 1], [1, 1]],
                                               "depth": 2}
    with pytest.raises(sf.SpecError, match="^" + re.escape(message)):
        parse({**base, **doc})


@pytest.mark.parametrize("doc, message", [
    ({"markov": {"q0": ["0.5", "0.5"], "edges": _EDGES}},
     "markov q0 entry must be a number, got '0.5'"),
    ({"markov": {"q0": [0.5, 0.5], "edges": [[0, 0, 0, "0.5"]] + _EDGES[1:]}},
     "markov edge probability must be a number, got '0.5'"),
    ({"markov": {"q0": [0.5, 0.5],
                 "edges": [[0, 0, 0, ["0.5"]]] + _EDGES[1:]}},
     "markov edge probability entry must be a number, got '0.5'"),
    ({"markov": {"q0": [0.5, True], "edges": _EDGES}},
     "markov q0 entry must be a number, got True"),
    ({"markov": {"q0": [0.5, 0.5], "edges": [[0, "0", 0, 0.5]] + _EDGES[1:]}},
     "markov edge source must be an integer, got '0'"),
    ({"markov": {"q0": [0.5, 0.5], "edges": [[True, 0, 0, 0.5]] + _EDGES[1:]}},
     "markov edge level must be an integer, got True"),
    ({"kernels": {"nu0": [0.5, "nan"], "chain": _CHAIN}},
     "kernels nu0 entry must be a number, got 'nan'"),
    ({"kernels": {"nu0": [0.5, 0.5], "chain": [[[0.5, "0.5"], [0.5, 0.5]]]}},
     "kernel 0 row entry must be a number, got '0.5'"),
    ({"substitution": {"name": "odometer", "k": "3"}},
     "odometer 'k' must be an integer, got '3'"),
], ids=["q0-strings", "edge-probability-string", "edge-rank-string",
        "q0-boolean", "edge-source-string", "edge-level-boolean",
        "nu0-nan-string", "chain-string", "odometer-k-string"])
def test_strings_and_booleans_are_not_numbers(doc, message):
    """A JSON string or boolean where a number belongs is a SpecError that
    names the field, not a value float() or int() happens to accept: the
    string "nan" in nu0 used to reach the kernel chain as a NaN and surface
    as "support is empty"."""
    base = {"depth": 2} if "substitution" in doc else {
        "matrix": [[1, 1], [1, 1]], "depth": 2}
    with pytest.raises(sf.SpecError, match="^" + re.escape(message) + "$"):
        parse({**base, **doc})


@pytest.mark.parametrize("doc, message", [
    ({"matrix": 5, "depth": 2},
     "matrix must be a non-empty list of rows, got 5"),
    ({"matrix": [1, 2], "depth": 2},
     "matrix must be a non-empty list of rows, got [1, 2]"),
    ({"matrix": [], "depth": 2},
     "matrix must be a non-empty list of rows, got []"),
    ({"matrix": [[1, 1], [1]], "depth": 2},
     "matrix rows must all have the same length"),
    ({"triplets": 5, "windows": [[0, 0], [0, 0]]},
     "triplets must be a list, got 5"),
    ({"triplets": [[0, 0, 0, 1]], "windows": 5},
     "windows must be a list of windows, got 5"),
], ids=["matrix-scalar", "matrix-flat", "matrix-empty", "matrix-ragged",
        "triplets-scalar", "windows-scalar"])
def test_structural_fields_are_checked(doc, message):
    """A construction field of the wrong shape is a SpecError naming the
    field; these used to end in a TypeError or IndexError traceback."""
    with pytest.raises(sf.SpecError, match="^" + re.escape(message) + "$"):
        parse(doc)


_BAND_RULE = {"offsets_word": [-2, 0, 0, 2]}


@pytest.mark.parametrize("block, message", [
    ({"offsets_word": 5},
     "substitution offsets_word must be a list of integers, got 5"),
    ({"offsets_word": [-2, 0.5, 2]},
     "substitution offsets_word entry must be an integer, got 0.5"),
    ({"offsets_word": [True, -1]},
     "substitution offsets_word entry must be an integer, got True"),
    ({"offsets_word": ["a"]},
     "substitution offsets_word entry must be an integer, got 'a'"),
    ({**_BAND_RULE, "alphabet": "foo"},
     "substitution alphabet must be 'int' or 'nat', got 'foo'"),
    ({**_BAND_RULE, "exceptions": [5]},
     "substitution exceptions must map letters to offset words, got [5]"),
    ({**_BAND_RULE, "exceptions": {"0": 5}},
     "substitution exceptions word must be a list of integers, got 5"),
    ({**_BAND_RULE, "exceptions": {"0": [0, 0.5]}},
     "substitution exceptions word entry must be an integer, got 0.5"),
    ({**_BAND_RULE, "exceptions": {"x": [0]}},
     "substitution exceptions key must be an integer, got 'x'"),
], ids=["word-scalar", "word-fraction", "word-boolean", "word-string",
        "alphabet", "exceptions-list", "exception-scalar",
        "exception-fraction", "exception-key"])
def test_band_rule_fields_are_checked(block, message):
    """Band-rule substitution fields are read as integers and a known
    alphabet: a fractional offset used to be truncated and a boolean
    read as 1, and a scalar word ended in a TypeError traceback."""
    with pytest.raises(sf.SpecError, match="^" + re.escape(message) + "$"):
        parse({"substitution": block, "window": [-6, 6, 2], "depth": 2})


def test_band_offsets_are_decimal_strings():
    """JSON object keys are strings, so band offsets stay decimal strings
    (or integers, from Python), and anything else names the offset."""
    doc = {"window": [-10, 10, 2], "depth": 2}
    want = parse({"band": {"-2": 1, "0": 2, "2": 1}, **doc}).diagram.F(0)
    got = parse({"band": {-2: 1, 0: 2, 2: 1}, **doc}).diagram.F(0)
    assert got.triplets() == want.triplets()
    for key in ("1.5", True):
        with pytest.raises(sf.SpecError,
                           match=re.escape(f"band offset must be an integer, "
                                           f"got {key!r}")):
            parse({"band": {key: 1, "0": 2}, **doc})


def test_markov_explicit_needs_q0_and_edges():
    with pytest.raises(sf.SpecError, match="q0 and edges"):
        parse({"matrix": [[1]], "depth": 2, "markov": {"q0": [1.0]}})


def test_markov_edge_probability_tuple():
    ps = parse({"matrix": [[2]], "depth": 2,
                "markov": {"q0": [1.0], "edges": [[0, 0, 0, [0.25, 0.75]]]}})
    assert ps.markov["probs"][0][(0, 0)] == (0.25, 0.75)


def test_kernel_chain_block():
    ps = parse({"matrix": [[1]], "depth": 3,
                "kernels": {"nu0": [0.5, 0.5],
                            "chain": [[[0.7, 0.3], [0.4, 0.6]],
                                      [[0.2, 0.8], [0.5, 0.5]]]}})
    spaces, ks = ps.kernels
    assert len(spaces) == 3 and len(ks) == 2
    assert spaces[1].nu(False) == pytest.approx([0.55, 0.45])


def test_kernel_chain_shape_mismatch():
    with pytest.raises(sf.SpecError, match="rows do not match"):
        parse({"matrix": [[1]], "depth": 2,
               "kernels": {"nu0": [0.5, 0.5],
                           "chain": [[[1.0, 0.0], [0.0, 1.0]],
                                     [[1.0], [1.0], [1.0]]]}})


def test_kernel_rows_must_be_probabilities():
    with pytest.raises(sf.SpecError, match="probabilities"):
        parse({"matrix": [[1]], "depth": 2,
               "kernels": {"nu0": [0.5, 0.5],
                           "chain": [[[0.7, 0.7], [0.4, 0.6]]]}})


# -- canonical form and file loading ---------------------------------------------

def test_emit_canonical_round_trip():
    doc = {"band": {"2": 1, "-2": 1, "0": 2}, "depth": 3,
           "window": [-10, 10, 2]}
    canon = sf.emit_canonical(doc)
    assert list(canon) == sorted(doc)
    assert list(canon["band"]) == ["-2", "0", "2"]
    assert canon["window"] == [-10, 10, 2]
    again = parse(canon)
    assert again.diagram.F(0).triplets() == parse(doc).diagram.F(0).triplets()


def test_canonical_expands_two_part_windows():
    canon = sf.emit_canonical({"matrix": [[1]], "depth": 2, "window": [3, 7]})
    assert canon["window"] == [3, 7, 1]


def test_parse_attaches_canonical():
    ps = parse({"depth": 2, "matrix": [[1]]})
    assert list(ps.canonical) == ["depth", "matrix"]


def test_load_spec_examples(tmp_path):
    for name in ("allones", "fibonacci", "kernels"):
        ps = sf.load_spec(f"examples_specs/{name}.json")
        assert ps.diagram.depth >= 1


def test_load_spec_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ not json", encoding="utf-8")
    with pytest.raises(sf.SpecError, match="not valid JSON"):
        sf.load_spec(str(p))


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_load_spec_rejects_non_finite_numbers(tmp_path, number):
    p = tmp_path / "nan.json"
    p.write_text('{"matrix": [[1]], "depth": 2, "kernels": {"nu0": [%s], '
                 '"chain": [[[1.0]]]}}' % number, encoding="utf-8")
    with pytest.raises(sf.SpecError, match="not valid JSON"):
        sf.load_spec(str(p))


def test_load_spec_depth_override(tmp_path):
    p = tmp_path / "fib.json"
    p.write_text(json.dumps({"substitution": {"name": "fibonacci"},
                             "depth": 2}), encoding="utf-8")
    assert sf.load_spec(str(p), depth_override=7).diagram.depth == 7
