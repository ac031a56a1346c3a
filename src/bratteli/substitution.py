"""Substitutions on finite or countable alphabets and their diagrams.

A substitution sends each letter to a nonempty word.  Its matrix counts, for
every target letter a, how often each source letter b occurs in the image
word of a; reading the image word left to right also equips every vertex
with a total order on its incoming edges.  Countable alphabets are supported
through band rules: away from finitely many exceptional letters, the image
of n is the word n+o_1, n+o_2, ... for a fixed offset word.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import diagram as dg


class EmptyImage(Exception):
    def __init__(self, letter):
        super().__init__(f"substitution image of {letter!r} is empty")
        self.letter = letter


@dataclass(frozen=True)
class Substitution:
    """Either an explicit finite rule or an affine band rule.

    words        : explicit images for a finite alphabet (letters -> word);
                   on countable alphabets it holds the exceptions instead.
    offsets_word : image of a generic letter n as offsets (n+o for o in word);
                   None for purely finite substitutions.
    alphabet     : "finite", "nat" (n >= 0) or "int".
    letters      : the alphabet order used for matrix windows (finite only).
    """

    words: Mapping[object, tuple] = field(default_factory=dict)
    offsets_word: tuple[int, ...] | None = None
    alphabet: str = "finite"
    letters: tuple = ()

    def image(self, letter):
        if letter in self.words:
            return tuple(self.words[letter])
        if self.offsets_word is None:
            raise KeyError(f"no image for letter {letter!r}")
        return tuple(letter + o for o in self.offsets_word)


def from_strings(rules: Mapping[str, str]) -> Substitution:
    """Finite substitution from {"a": "ab", ...}; alphabet = sorted keys."""
    words = {k: tuple(v) for k, v in rules.items()}
    for k, w in words.items():
        if not w:
            raise EmptyImage(k)
        for ch in w:
            if ch not in rules:
                raise KeyError(f"image of {k!r} uses unknown letter {ch!r}")
    return Substitution(words=words, letters=tuple(sorted(rules)))


def band_rule(offsets_word: Sequence[int], alphabet: str = "int",
              exceptions: Mapping[int, Sequence[int]] | None = None,
              ) -> Substitution:
    word = tuple(int(o) for o in offsets_word)
    if not word:
        raise EmptyImage("<generic>")
    exc = {int(k): tuple(int(x) for x in v) for k, v in (exceptions or {}).items()}
    for k, w in exc.items():
        if not w:
            raise EmptyImage(k)
    return Substitution(words=exc, offsets_word=word, alphabet=alphabet)


# ---------------------------------------------------------------- examples

def fibonacci() -> Substitution:
    """a -> ab, b -> a."""
    return from_strings({"a": "ab", "b": "a"})


def odometer(k: int = 2) -> Substitution:
    """a -> a^k: the k-adic odometer diagram F = [[k]]."""
    return from_strings({"a": "a" * k})


def drunkard_walk() -> Substitution:
    """n -> (n-2) n n (n+2) on the even integers.

    The diagram is the band matrix of a lazy +-2 random walk: offsets
    (-2, 0, +2) with weights (1, 2, 1).  No finite invariant measure.
    """
    return band_rule((-2, 0, 0, 2), alphabet="int")


def nat_length_two() -> Substitution:
    """0 -> 01, 1 -> 02, n -> (n-2)(n+1) on the nonnegative integers.

    Constant length 2; the diagram carries a probability tail-invariant
    measure (the right Perron vector decays summably).
    """
    return band_rule((-2, 1), alphabet="nat",
                     exceptions={0: (0, 1), 1: (0, 2)})


# ---------------------------------------------------------------- operations

def substitution_matrix(s: Substitution, window=None
                        ) -> dg.IncidenceMatrix:
    """Occurrence-count matrix: entry (a, b) = #occurrences of b in image(a).

    Finite alphabets ignore ``window`` (positions follow ``s.letters``);
    band rules are materialized on the given window, dropping letters that
    leave it (windowed truncation).  The matrix is level 0's; stationary
    diagrams repeat it.
    """
    is_const, clen = constant_length(s)
    if s.offsets_word is None:
        letters = s.letters or tuple(sorted(s.words))
        pos = {a: i for i, a in enumerate(letters)}
        entries: dict[tuple[int, int], int] = {}
        for a in letters:
            img = s.image(a)
            if not img:
                raise EmptyImage(a)
            for b in img:
                key = (pos[a], pos[b])
                entries[key] = entries.get(key, 0) + 1
        win = dg.Window(0, len(letters) - 1)
        return dg.IncidenceMatrix(0, entries, win, win,
                                  row_sum_claim=clen if is_const else None)

    if window is None:
        raise dg.WindowMismatch("band substitutions need an explicit window")
    win = dg.window_of(window)
    if s.alphabet == "nat" and win.lo < 0:
        raise dg.WindowMismatch("alphabet 'nat' needs a window with lo >= 0")
    entries = {}
    band_counts: dict[int, int] = {}
    for o in s.offsets_word:
        band_counts[o] = band_counts.get(o, 0) + 1
    ext_rows: set[int] = set()
    for a in win.vertices:
        img = s.image(a)
        kept = [b for b in img if b in win]
        if not kept:
            raise EmptyImage(a)
        if len(kept) < len(img):
            ext_rows.add(a)
        for b in kept:
            entries[(a, b)] = entries.get((a, b), 0) + 1
    # a column is exterior when some letter outside the window maps into it
    ext_cols: set[int] = set()
    for w in win.vertices:
        contributors = [a for a, word in s.words.items() if w in word]
        for o in set(s.offsets_word):
            a = w - o
            if a in s.words or a % win.step:
                continue
            if s.alphabet == "nat" and a < 0:
                continue
            contributors.append(a)
        if any(a not in win for a in contributors):
            ext_cols.add(w)
    band = None
    if not s.words and s.alphabet == "int":
        # pure band rule on Z: every row is the shifted offset word
        band = tuple(sorted(band_counts.items()))
    return dg.IncidenceMatrix(
        0, entries, win, win, band=band,
        row_sum_claim=len(s.offsets_word) if is_const else None,
        col_sum_claim=len(s.offsets_word) if band is not None else None,
        exterior_rows=frozenset(ext_rows) if ext_rows else None,
        exterior_cols=frozenset(ext_cols) if ext_cols else None)


def reading_order(s: Substitution, matrix: dg.IncidenceMatrix) -> dg.EdgeOrder:
    """Left-to-right order on incoming edges from reading the image words."""
    table: dict[int, tuple[tuple[int, int], ...]] = {}
    if s.offsets_word is None:
        letters = s.letters or tuple(sorted(s.words))
        pos = {a: i for i, a in enumerate(letters)}
        decode = {i: a for a, i in pos.items()}
    else:
        decode = None
    for v in matrix.targets:
        a = decode[v] if decode else v
        img = s.image(a)
        counts: dict[int, int] = {}
        pairs = []
        for b in img:
            w = pos[b] if decode else b
            if not matrix.multiplicity(v, w):
                continue  # letter truncated by the window
            r = counts.get(w, 0)
            counts[w] = r + 1
            pairs.append((w, r))
        table[v] = tuple(pairs)
    return dg.EdgeOrder((table,), stationary=True)


def build_ordered_diagram(s: Substitution, depth: int, window=None
                          ) -> tuple[dg.Diagram, dg.EdgeOrder]:
    """Stationary diagram of the substitution plus its reading order."""
    proto = substitution_matrix(s, window)
    d = dg.stationary_diagram(proto, depth)
    order = reading_order(s, proto)
    dg.check_order(d, order)
    return d, order


def constant_length(s: Substitution):
    """(True, L) when every image word has length L, else (False, None)."""
    lengths = {len(tuple(w)) for w in s.words.values()}
    if s.offsets_word is not None:
        lengths.add(len(s.offsets_word))
    if len(lengths) == 1:
        return True, lengths.pop()
    return False, None
