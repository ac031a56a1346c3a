"""Substitutions on finite or countable alphabets and their diagrams.

A substitution sends each letter to a nonempty word; a band rule sends
letter n of a countable alphabet to n+o_1, n+o_2, ... for a fixed offset
word, save finitely many exceptions.  The image words are read once, into
arrays over their letters, which give the matrix (how often each source
occurs in each target's word) and the reading order of incoming edges.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import Error, diagram as dg


class EmptyImage(Error):
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

def _letters(s: Substitution, window):
    """The window, and per letter of every image word (by target, then in
    word order) its target position ``tgt`` and source position ``src``,
    -1 where the window drops it.  Band letters that are no exception read
    the offset word, vectorised; a target that keeps none is EmptyImage."""
    if s.offsets_word is None:
        letters, offsets = s.letters or tuple(sorted(s.words)), ()
        pos = {a: i for i, a in enumerate(letters)}
        win = dg.Window(0, len(letters) - 1)
        words = {pos[a]: [pos[b] for b in s.image(a)] for a in letters}
    elif window is None:
        raise dg.WindowMismatch("band substitutions need an explicit window")
    elif s.alphabet == "nat" and dg.window_of(window).lo < 0:
        raise dg.WindowMismatch("alphabet 'nat' needs a window with lo >= 0")
    else:
        win, offsets = dg.window_of(window), s.offsets_word
        letters = win.vertices
        words = {win.position(a): [win.position(b) if b in win else -1
                                   for b in w]
                 for a, w in s.words.items() if a in win}
    n = len(win)
    lengths = np.full(n, len(offsets))
    lengths[list(words)] = [len(w) for w in words.values()]
    starts = np.cumsum(lengths) - lengths
    src = np.empty(lengths.sum(), dtype=np.int64)
    rows = np.delete(np.arange(n), list(words))
    for k, o in enumerate(offsets):   # a shift of n or more lands nowhere
        j = rows + (min(max(o // win.step, -n), n) if o % win.step == 0 else n)
        src[starts[rows] + k] = np.where((j >= 0) & (j < n), j, -1)
    for i, w in words.items():
        src[starts[i]:starts[i] + len(w)] = w
    tgt = np.repeat(np.arange(n), lengths)
    kept = np.bincount(tgt[src >= 0], minlength=n)
    if not kept.all():
        raise EmptyImage(letters[int(kept.argmin())])
    return win, tgt, src


def substitution_matrix(s: Substitution, window=None
                        ) -> dg.IncidenceMatrix:
    """Occurrence-count matrix: entry (a, b) = #occurrences of b in image(a).

    Finite alphabets ignore ``window``; band rules are materialized on it
    as level 0, dropping the letters that leave it.  A row is interior when
    its image lies in the window, a column when all letters mapping into it
    do: the exceptions, and the generic letters, on the window's step or
    off it (an off-step letter is never a vertex), and >= 0 on 'nat'.
    """
    win, tgt, src = _letters(s, window)
    n, step, nat = len(win), win.step, s.alphabet == "nat"
    count = np.zeros(n, dtype=np.int64)   # letters outside feeding a column
    for o in set(s.offsets_word or ()):   # column j's generic sender: v_j - o
        floor = -((win.vertices[0] - o) // step) if nat else 0   # v_j >= o
        count[max(floor, 0):] += 1
        if o % step == 0:   # a vertex for columns o/step .. n - 1 + o/step
            count[max(o // step, 0):max(n + o // step, 0)] -= 1
    for a, word in s.words.items() if s.offsets_word is not None else ():
        if a not in win:   # a reads its word, not the offset word
            generic = {a + o for o in s.offsets_word if not nat or a >= 0}
            for c, bs in ((-1, generic), (1, set(word))):
                for b in filter(win.__contains__, bs):
                    count[win.position(b)] += c
    kept, clen = src >= 0, constant_length(s)[1]
    return dg.IncidenceMatrix(
        dg._csr_from_coo(tgt[kept], src[kept], 1, (n, n)), win, win,
        row_sum_claim=clen, interior_cols=count == 0,
        col_sum_claim=clen if s.alphabet == "int" and not s.words else None,
        interior_rows=np.bincount(tgt[~kept], minlength=n) == 0)


def reading_order(s: Substitution, matrix: dg.IncidenceMatrix) -> dg.EdgeOrder:
    """Left-to-right order on incoming edges from reading the image words:
    each letter the window keeps is the edge (source, rank), its rank
    counting the earlier letters of its word with the same source.  Sorting
    the kept letters stably by (target, source) lists them in natural
    order, so a letter's place in that sort is its natural position."""
    _, tgt, src = _letters(s, matrix.row_window)
    edge = (tgt * len(matrix.row_window) + src)[src >= 0]
    natural = np.argsort(edge, kind="stable")   # word order within an edge
    return dg.EdgeOrder((np.argsort(natural),))


def constant_length(s: Substitution):
    """(True, L) when every image word has length L, else (False, None)."""
    lengths = {len(tuple(w)) for w in s.words.values()}
    if s.offsets_word is not None:
        lengths.add(len(s.offsets_word))
    if len(lengths) == 1:
        return True, lengths.pop()
    return False, None
