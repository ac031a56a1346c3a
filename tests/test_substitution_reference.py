"""The substitution builder's letter arrays against its per-letter loops.

``substitution_matrix`` and ``reading_order`` read every image word through
one pair of letter arrays; the loop forms below are the definitions they
replaced, kept as references.  On seeded random rules, finite and band
rules on ``int`` and ``nat``, with exceptions inside and outside the window,
repeated letters, steps 1-3, offsets off the step and a window past 2**63,
both must give the same CSR arrays and dtypes, masks, claims, windows and
reading orders (read target by target), or the same error kind and text.
"""

from collections import Counter

import numpy as np
import pytest

from bratteli import diagram as dg
from bratteli import substitution as sb


# -- reference loop forms ---------------------------------------------------------

def ref_substitution_matrix(s, window=None):
    is_const, clen = sb.constant_length(s)
    if s.offsets_word is None:
        letters = s.letters or tuple(sorted(s.words))
        pos = {a: i for i, a in enumerate(letters)}
        rows, cols = [], []
        for a in letters:
            img = s.image(a)
            if not img:
                raise sb.EmptyImage(a)
            rows += [pos[a]] * len(img)
            cols += [pos[b] for b in img]
        win, n = dg.Window(0, len(letters) - 1), len(letters)
        return dg.IncidenceMatrix(dg._csr_from_coo(rows, cols, 1, (n, n)),
                                  win, win,
                                  row_sum_claim=clen if is_const else None)

    if window is None:
        raise dg.WindowMismatch("band substitutions need an explicit window")
    win = dg.window_of(window)
    if s.alphabet == "nat" and win.lo < 0:
        raise dg.WindowMismatch("alphabet 'nat' needs a window with lo >= 0")
    n = len(win)
    interior_rows = np.ones(n, dtype=bool)
    rows, cols = [], []
    for i, a in enumerate(win.vertices):
        img = s.image(a)
        kept = [b for b in img if b in win]
        if not kept:
            raise sb.EmptyImage(a)
        interior_rows[i] = len(kept) == len(img)
        rows += [i] * len(kept)
        cols += [win.position(b) for b in kept]
    interior_cols = np.ones(n, dtype=bool)
    for j, w in enumerate(win.vertices):
        contributors = [a for a, word in s.words.items() if w in word]
        for o in set(s.offsets_word):
            a = w - o
            if a not in s.words and (s.alphabet == "int" or a >= 0):
                contributors.append(a)
        interior_cols[j] = all(a in win for a in contributors)
    pure_band = not s.words and s.alphabet == "int"
    return dg.IncidenceMatrix(
        dg._csr_from_coo(rows, cols, 1, (n, n)), win, win,
        row_sum_claim=len(s.offsets_word) if is_const else None,
        col_sum_claim=len(s.offsets_word) if pure_band else None,
        interior_rows=interior_rows, interior_cols=interior_cols)


def ref_reading_order(s, matrix):
    table = {}
    if s.offsets_word is None:
        letters = s.letters or tuple(sorted(s.words))
        pos = {a: i for i, a in enumerate(letters)}
        decode = {i: a for a, i in pos.items()}
    else:
        decode = None
    for v in matrix.targets:
        a = decode[v] if decode else v
        img = s.image(a)
        counts = {}
        pairs = []
        for b in img:
            w = pos[b] if decode else b
            if matrix.edge_index(v, w) < 0:
                continue
            r = counts.get(w, 0)
            counts[w] = r + 1
            pairs.append((w, r))
        table[v] = tuple(pairs)
    return table


def _same_order(s, m, table):
    """The builder's reading order passes ``check_order`` and lists, target
    by target through ``order_at``, the reference table's pairs.  The
    one-level diagram is not validated: a random rule may leave a column
    empty."""
    d, order = dg.Diagram((m,), 1), sb.reading_order(s, m)
    dg.check_order(d, order)
    assert {v: order.order_at(d, 0, v) for v in m.targets} == table


# -- seeded rules -----------------------------------------------------------------

def _finite_rule(rng):
    letters = "abcdef"[:int(rng.integers(1, 7))]
    words = {a: "".join(rng.choice(list(letters), int(rng.integers(1, 5))))
             for a in letters}
    if rng.random() < 0.15:   # an empty word, which only a hand-built rule has
        words[str(rng.choice(list(letters)))] = ""
    order = tuple(rng.permutation(list(letters))) if rng.random() < 0.5 else ()
    return sb.Substitution(words={a: tuple(w) for a, w in words.items()},
                           letters=order), None


def _band_rule(rng, big=False):
    alphabet = "nat" if rng.random() < 0.4 else "int"
    step = int(rng.integers(1, 4))
    size = int(rng.integers(1, 12))
    base = 2**70 if big else 0   # letters are drawn from base and shifted
    lo = (int(rng.integers(0, 8)) if alphabet == "nat"
          else int(rng.integers(-12, 4)))
    hi = lo + step * size + int(rng.integers(0, step))
    offsets = tuple(int(step * rng.integers(-3, 4)
                        if rng.random() < 0.8 else rng.integers(-7, 8))
                    for _ in range(int(rng.integers(1, 6))))
    exceptions = {}
    for _ in range(int(rng.integers(0, 5))):
        key = int(rng.integers(lo - 3 * step, hi + 3 * step + 1))
        if alphabet == "nat" and rng.random() < 0.7:
            key = abs(key) % (hi + 4)
        letters = rng.integers(lo - 2 * step, hi + 2 * step + 1,
                               int(rng.integers(1, 6)))
        if rng.random() < 0.3:   # repeated letters
            letters = np.repeat(letters[:2], 2)
        exceptions[base + key] = tuple(base + int(b) for b in letters)
    lo, hi = base + lo, base + hi
    return (sb.band_rule(offsets, alphabet=alphabet, exceptions=exceptions),
            dg.Window(lo, hi, step))


def _cases(seed, count):
    rng = np.random.default_rng(seed)
    for k in range(count):
        kind = k % 6
        if kind == 0:
            yield _finite_rule(rng)
        else:
            yield _band_rule(rng, big=kind == 5)


def _outcome(build, *args):
    try:
        return "ok", build(*args)
    except Exception as exc:   # compared by kind and text
        return type(exc).__name__, str(exc)


def _same_matrix(a, b):
    assert (a.row_window, a.col_window) == (b.row_window, b.col_window)
    for x, y in zip(a.csr, b.csr):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    for name in ("interior_rows", "interior_cols"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert (a.row_sum_claim, a.col_sum_claim) == (b.row_sum_claim,
                                                   b.col_sum_claim)


@pytest.mark.parametrize("seed", range(8))
def test_letter_arrays_match_per_letter_loops(seed):
    kinds = set()
    for s, win in _cases(seed, 60):
        got = _outcome(sb.substitution_matrix, s, win)
        want = _outcome(ref_substitution_matrix, s, win)
        assert got[0] == want[0]
        kinds.add(got[0])
        if got[0] != "ok":
            assert got[1] == want[1]
            continue
        _same_matrix(got[1], want[1])
        _same_order(s, got[1], ref_reading_order(s, want[1]))
    assert "ok" in kinds and "EmptyImage" in kinds


def test_reference_cases_cover_the_edge_cases():
    """The seeded rules reach every case the builder distinguishes."""
    seen = set()
    for seed in range(8):
        for s, win in _cases(seed, 60):
            if win is None:
                seen.add("finite")
                continue
            seen.add(s.alphabet)
            seen.add(f"step {win.step}")
            if win.lo >= 2**63:
                seen.add("past 2**63")
            if any(o % win.step for o in s.offsets_word):
                seen.add("off-step offset")
            for a, w in s.words.items():
                seen.add("exception inside" if a in win else
                         "exception outside")
                if len(set(w)) < len(w):
                    seen.add("repeated letter")
    assert seen >= {"finite", "int", "nat", "step 1", "step 2", "step 3",
                    "past 2**63", "off-step offset", "exception inside",
                    "exception outside", "repeated letter"}


@pytest.mark.parametrize("alphabet", ["int", "nat"])
def test_offsets_and_exceptions_far_past_the_window(alphabet):
    """Offsets and exception keys past int64 land nowhere in the window."""
    s = sb.band_rule((0, 10 ** 30, -10 ** 30, 0), alphabet=alphabet,
                     exceptions={10 ** 30: (2, 4, 2 ** 70), 2: (4, -10 ** 30)})
    win = dg.Window(0, 8, 2)
    got = sb.substitution_matrix(s, win)
    _same_matrix(got, ref_substitution_matrix(s, win))
    assert not got.interior_rows.any()
    _same_order(s, got, ref_reading_order(s, got))


@pytest.mark.parametrize("seed", range(4))
def test_int_band_rules_match_band_matrix(seed):
    """Without exceptions an 'int' band rule is a band: the substitution
    builder gives the arrays, masks and claims ``band_matrix`` gives for
    the same offsets, offsets off the window's step included."""
    rng = np.random.default_rng(seed)
    off_step = 0
    for _ in range(40):
        step = int(rng.integers(1, 4))
        span = step * int(rng.integers(1, 4))
        word = [0, span * int(rng.choice([-1, 1]))] + rng.integers(
            -span, span + 1, int(rng.integers(0, 5))).tolist()
        rng.shuffle(word)
        lo = int(rng.integers(-12, 4))
        win = dg.Window(lo, lo + 2 * span + int(rng.integers(0, 3 * step)),
                        step)
        _same_matrix(sb.substitution_matrix(sb.band_rule(word), win),
                     dg.band_matrix(win, Counter(word)))
        off_step += any(o % step for o in word)
    assert off_step


def test_off_step_offset_leaves_no_column_interior():
    m = sb.substitution_matrix(sb.band_rule((-2, 0, 1, 2)),
                               dg.Window(-10, 10, 2))
    assert not m.interior_rows.any() and not m.interior_cols.any()


def test_band_rules_need_their_window():
    for build in (sb.substitution_matrix, ref_substitution_matrix):
        assert _outcome(build, sb.drunkard_walk(), None) == (
            "WindowMismatch", "band substitutions need an explicit window")
        assert _outcome(build, sb.nat_length_two(), dg.Window(-2, 4)) == (
            "WindowMismatch", "alphabet 'nat' needs a window with lo >= 0")
