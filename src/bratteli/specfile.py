"""Ingest and emit the JSON diagram description used by the CLI.

One document describes one diagram through exactly one construction path
(dense stationary matrix, explicit sparse triplets, band rule, or
substitution rule), plus optional blocks for an edge order, a Markov
system, and a cell-kernel chain.  Unknown fields are rejected --
misspellings should fail loudly, not silently change the analysis.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

from . import Error
from . import diagram as dg
from . import measures as ms
from . import substitution as sb


class SpecError(Error):
    pass


# a stationary diagram is one level record, but the analyses still take a
# loop step and keep one vector per level (analyze measure prints them all),
# so time and output grow with depth: a deeper diagram is refused
MAX_DEPTH = 10**6


_TOP_FIELDS = {"matrix", "triplets", "band", "substitution", "depth",
               "window", "windows", "order", "markov", "kernels"}
_SUB_FIELDS = {"rules", "name", "k", "offsets_word", "alphabet", "exceptions"}
_MARKOV_FIELDS = {"q0", "edges", "from_tail_invariant", "normalization"}
_KERNEL_FIELDS = {"nu0", "chain"}
_NAMED_SUBSTITUTIONS = {
    "fibonacci": sb.fibonacci,
    "odometer": sb.odometer,
    "drunkard_walk": sb.drunkard_walk,
    "nat_length_two": sb.nat_length_two,
}


@dataclass(frozen=True)
class ParsedSpec:
    diagram: dg.Diagram
    order: dg.EdgeOrder | None
    substitution: sb.Substitution | None
    markov: dict | None
    kernels: tuple | None          # (spaces, kernels) or None
    canonical: dict = field(compare=False)


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecError(msg)


def _is_number(x) -> bool:
    """A JSON number: a real, but not a string or a boolean, which float()
    and int() would also turn into one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_int(x) -> bool:
    """An integer field's value: an int or an integral float, but not a
    boolean."""
    return _is_number(x) and (isinstance(x, numbers.Integral)
                              or isinstance(x, float) and x.is_integer())


def _integral(x, where: str) -> int:
    """x as an int; anything ``_is_int`` refuses raises SpecError."""
    if _is_int(x):
        return int(x)
    raise SpecError(f"{where} must be an integer, got {x!r}")


def _number(x, where: str) -> float:
    """x as a float; anything but a number, or an integer past the float
    range, raises SpecError."""
    if not _is_number(x):
        raise SpecError(f"{where} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise SpecError(f"{where} is too large for a float") from None


def _offset(key, where: str) -> int:
    """An integer, or the decimal string of one, which is what a JSON
    object key holds; anything else raises SpecError naming ``where``."""
    if isinstance(key, str):
        try:
            return int(key)
        except ValueError:
            pass
    return _integral(key, where)


def _integers(value, where: str) -> tuple[int, ...]:
    """A list of integers as ints; anything else raises SpecError."""
    _require(isinstance(value, (list, tuple)),
             f"{where} must be a list of integers, got {value!r}")
    return tuple(_integral(x, f"{where} entry") for x in value)


def _numbers(value, where: str) -> tuple[float, ...]:
    """A list of numbers as floats; anything else raises SpecError."""
    _require(isinstance(value, (list, tuple)),
             f"{where} must be a list of numbers, got {value!r}")
    return tuple(_number(x, f"{where} entry") for x in value)


def _check_fields(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    _require(not unknown, f"unknown field(s) in {where}: {sorted(unknown)}")


def _as_window(value, where: str) -> dg.Window:
    _require(isinstance(value, (list, tuple)) and len(value) in (2, 3)
             and all(map(_is_int, value)),
             f"{where} must be [lo, hi] or [lo, hi, step]")
    return dg.window_of(tuple(value))


def _parse_substitution(block) -> sb.Substitution:
    _require(isinstance(block, dict), "substitution must be an object")
    _check_fields(block, _SUB_FIELDS, "substitution")
    if "name" in block:
        _require(set(block) <= {"name", "k"}, "named substitutions take only 'k'")
        name = block["name"]
        _require(name in _NAMED_SUBSTITUTIONS,
                 f"unknown substitution name {name!r}")
        if name == "odometer":
            return _NAMED_SUBSTITUTIONS[name](
                _integral(block.get("k", 2), "odometer 'k'"))
        _require("k" not in block, f"{name!r} takes no 'k'")
        return _NAMED_SUBSTITUTIONS[name]()
    if "rules" in block:
        _require(set(block) == {"rules"}, "word rules take no other fields")
        rules = block["rules"]
        _require(isinstance(rules, dict) and rules
                 and all(isinstance(k, str) and isinstance(v, str)
                         for k, v in rules.items()),
                 "rules must map letters to words")
        try:
            return sb.from_strings(rules)
        except KeyError as e:   # an image uses a letter without a rule
            raise SpecError(e.args[0]) from e
    _require("offsets_word" in block, "substitution needs rules, a name, or "
             "an offsets_word")
    alphabet = block.get("alphabet", "int")
    _require(alphabet in ("int", "nat"), f"substitution alphabet must be "
             f"'int' or 'nat', got {alphabet!r}")
    exceptions = block.get("exceptions", {})
    _require(isinstance(exceptions, dict), f"substitution exceptions must "
             f"map letters to offset words, got {exceptions!r}")
    return sb.band_rule(
        _integers(block["offsets_word"], "substitution offsets_word"),
        alphabet=alphabet,
        exceptions={_offset(k, "substitution exceptions key"):
                    _integers(v, "substitution exceptions word")
                    for k, v in exceptions.items()})


def parse_spec(doc: dict, depth_override: int | None = None) -> ParsedSpec:
    """Validate a spec document and construct everything it describes.

    Diagram-structure violations (zero rows, window mismatches, ...)
    propagate as DiagramError subclasses so callers can report them by
    kind; schema problems raise SpecError.
    """
    _require(isinstance(doc, dict), "spec must be a JSON object")
    _check_fields(doc, _TOP_FIELDS, "spec")
    paths = [k for k in ("matrix", "triplets", "band", "substitution")
             if k in doc]
    _require(len(paths) == 1,
             f"spec must use exactly one construction, found {paths}")
    kind = paths[0]
    depth = depth_override if depth_override is not None else doc.get("depth")
    subst = None

    if kind == "triplets":
        _require(depth_override is None,
                 "--depth cannot override an explicit triplet diagram")
        _require("windows" in doc, "triplets need per-level windows")
        _require(isinstance(doc["windows"], (list, tuple)),
                 f"windows must be a list of windows, got {doc['windows']!r}")
        wins = [_as_window(w, "windows[]") for w in doc["windows"]]
        _require(len(wins) >= 2, "windows must cover levels 0..depth")
        _require(isinstance(doc["triplets"], (list, tuple)),
                 f"triplets must be a list, got {doc['triplets']!r}")
        by_level: dict[int, dict] = {}
        for t in doc["triplets"]:
            _require(isinstance(t, (list, tuple)) and len(t) == 4
                     and all(map(_is_int, t)),
                     "triplets are [level, target, source, multiplicity]")
            lvl, tgt, src, mult = map(int, t)
            _require(0 <= lvl < len(wins) - 1, f"triplet level {lvl} out of range")
            by_level.setdefault(lvl, {})
            by_level[lvl][(tgt, src)] = by_level[lvl].get((tgt, src), 0) + mult
        diagram = dg.validate(   # reads each level after checking the last
            dg.incidence_from_entries(lvl, by_level.get(lvl, {}),
                                      wins[lvl + 1], wins[lvl])
            for lvl in range(len(wins) - 1))
    else:
        _require(_is_int(depth) and depth >= 1,
                 "depth must be a positive integer")
        _require(depth <= MAX_DEPTH, f"depth must be at most {MAX_DEPTH}")
        depth = int(depth)
        _require("windows" not in doc, "'windows' only applies to triplets")
        if kind == "matrix":
            win = (_as_window(doc["window"], "window")
                   if "window" in doc else None)
            rows = doc["matrix"]
            _require(isinstance(rows, (list, tuple)) and rows
                     and all(isinstance(r, (list, tuple)) for r in rows),
                     f"matrix must be a non-empty list of rows, got {rows!r}")
            _require(len({len(r) for r in rows}) == 1,
                     "matrix rows must all have the same length")
            diagram = dg.stationary_diagram(rows, depth, win)
        elif kind == "band":
            _require("window" in doc, "band rules need a window")
            _require(isinstance(doc["band"], dict),
                     "band must map offsets to multiplicities")
            band = {_offset(k, "band offset"): v
                    for k, v in doc["band"].items()}
            diagram = dg.band_diagram(band, depth,
                                      _as_window(doc["window"], "window"))
        else:
            subst = _parse_substitution(doc["substitution"])
            win = (_as_window(doc["window"], "window")
                   if "window" in doc else None)
            if subst.words and win is None:
                diagram = dg.stationary_diagram(
                    sb.substitution_matrix(subst), depth)
            else:
                _require(win is not None,
                         "band-rule substitutions need a window")
                diagram = dg.stationary_diagram(
                    sb.substitution_matrix(subst, win), depth)

    order_name = doc.get("order", "natural")
    if order_name == "natural":
        order = dg.natural_order(diagram)
    elif order_name == "reading":
        _require(subst is not None,
                 "reading order requires a substitution construction")
        order = sb.reading_order(subst, diagram.F(0))
        dg.check_order(diagram, order)
    else:
        raise SpecError(f"unknown order {order_name!r}")

    markov = None
    if "markov" in doc:
        blk = doc["markov"]
        _require(isinstance(blk, dict), "markov must be an object")
        _check_fields(blk, _MARKOV_FIELDS, "markov")
        if blk.get("from_tail_invariant"):
            _require(set(blk) <= {"from_tail_invariant", "normalization"},
                     "induced markov blocks take only a normalization")
            norm = blk.get("normalization", "probability")
            _require(norm in ms.NORMALIZATIONS,
                     f"unknown markov normalization {norm!r}; expected one "
                     f"of {', '.join(ms.NORMALIZATIONS)}")
            markov = {"from_tail_invariant": True, "normalization": norm}
        else:
            _require("q0" in blk and "edges" in blk,
                     "explicit markov blocks need q0 and edges")
            _require("normalization" not in blk,
                     "explicit markov blocks take no normalization")
            _require(isinstance(blk["edges"], (list, tuple)),
                     f"markov edges must be a list, got {blk['edges']!r}")
            # {(source, target): p} per level, in the block's order
            probs = [{} for _ in range(diagram.depth)]
            for e in blk["edges"]:
                _require(isinstance(e, (list, tuple)) and len(e) == 4,
                         "markov edges are [level, source, target, p]")
                lvl, src, tgt = [_integral(x, f"markov edge {what}") for x, what
                                 in zip(e, ("level", "source", "target"))]
                _require(0 <= lvl < diagram.depth,
                         f"markov edge level {e[0]} outside "
                         f"0..{diagram.depth - 1}")
                _require((src, tgt) not in probs[lvl],
                         f"markov edge (level {lvl}, source {src}, target "
                         f"{tgt}) is given more than once")
                probs[lvl][(src, tgt)] = (
                    _numbers(e[3], "markov edge probability")
                    if isinstance(e[3], (list, tuple))
                    else _number(e[3], "markov edge probability"))
            markov = {"q0": _numbers(blk["q0"], "markov q0"),
                      "probs": tuple(probs)}

    kernels = None
    if "kernels" in doc:
        from . import cells as cl   # only a kernel block needs sampling code
        blk = doc["kernels"]
        _require(isinstance(blk, dict), "kernels must be an object")
        _check_fields(blk, _KERNEL_FIELDS, "kernels")
        _require("nu0" in blk and "chain" in blk,
                 "kernel blocks need nu0 and chain")
        space = cl.CellSpace(_numbers(blk["nu0"], "kernels nu0"))
        spaces = [space]
        ks = []
        _require(isinstance(blk["chain"], (list, tuple)),
                 "kernels chain must be a list of matrices")
        for i, mat in enumerate(blk["chain"]):
            _require(isinstance(mat, (list, tuple)),
                     f"kernel {i} must be a list of rows")
            k = cl.kernel_from([_numbers(row, f"kernel {i} row")
                                for row in mat])
            _require(k.shape[0] == spaces[-1].m,
                     f"kernel {i} rows do not match the previous space")
            _require(k.is_probability(),
                     f"kernel {i} rows must be probabilities")
            ks.append(k)
            spaces.append(cl.CellSpace(
                tuple(spaces[-1].nu(False) @ k.array(False))))
        kernels = (tuple(spaces), tuple(ks))

    return ParsedSpec(diagram, order, subst, markov, kernels,
                      canonical=emit_canonical(doc))


def _ints(x):
    """x with every integral number in it, within lists and objects, as an
    int, the form the parser reads an integer field in."""
    if isinstance(x, dict):
        return {k: _ints(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_ints(v) for v in x]
    return int(x) if _is_int(x) else x


def emit_canonical(doc: dict) -> dict:
    """Normalized copy of a spec document: sorted keys, band offsets as
    decimal strings, windows as 3-lists, integer fields as ints (``markov``
    and ``kernels`` numbers other than edge indices are copied).  Parsing
    the emitted form yields the same structures as parsing the original."""
    out = {}
    for key in sorted(doc):
        val = doc[key]
        if key == "band":
            out[key] = {str(int(k)): int(v)
                        for k, v in sorted(val.items(), key=lambda kv: int(kv[0]))}
        elif key == "window":
            w = dg.window_of(tuple(val))
            out[key] = [w.lo, w.hi, w.step]
        elif key == "windows":
            out[key] = [[dg.window_of(tuple(v)).lo, dg.window_of(tuple(v)).hi,
                         dg.window_of(tuple(v)).step] for v in val]
        elif key == "markov" and "edges" in val:
            out[key] = {**val, "edges": [_ints(e[:3]) + e[3:]
                                         for e in val["edges"]]}
        elif key in ("markov", "kernels"):
            out[key] = val
        else:
            out[key] = _ints(val)
    return out


def _finite(text: str) -> float:
    """JSON number parser that refuses NaN, Infinity and overflow."""
    x = float(text)
    if not math.isfinite(x):
        raise SpecError(f"not valid JSON: {text} is not a finite number")
    return x


def load_spec(path: str, depth_override: int | None = None) -> ParsedSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SpecError(f"cannot read spec {path}: {e.strerror}") from e
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as e:
        raise SpecError(f"not valid JSON: {e}") from e
    return parse_spec(doc, depth_override)
