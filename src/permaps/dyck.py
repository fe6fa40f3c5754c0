"""Labeled Dyck paths and the cycle-placement bijection with permutations.

A Dyck path is a word over {a, b} with as many a's as b's in which no
prefix has more b's than a's; it is primitive when no proper nonempty
prefix balances.  Labeled paths attach a non-negative integer to every
b step, written ``b0``, ``b1``, ...; tokens are whitespace-separated in
text form, e.g. ``"a a b0 b1"``.

Two labeling schemes are supported.  In the first ("delta") a b step is
labeled 0 exactly when it immediately follows an a, and any other b
with prefix g (everything before it) carries a label between 1 and
|g|_a - |g|_b.  In the second ("rv") a b immediately following an a is
labeled 1, and every label lies between 1 and |g|_a - |g|_b.  Either
way a path with heights h_1..h_j ahead of its non-peak b's admits
exactly prod (h_i + 1) labelings, and ``convert_label_scheme`` is the
involution between the two schemes that fixes the underlying path.
Every function here that reads a word walks it once, through
``_b_steps``, and ``_labels`` is the one rule for admissible labels.

``delta`` encodes a permutation by scanning 1..n: a cycle minimum of a
k-cycle contributes a^k b0 and opens a block of k slots (slot 0 taken by
the minimum, the rest reserved for the cycle's orbit in order); any
other i goes to its reserved slot, and the label records that slot's
rank among the free slots counted cyclically from the pivot, the
smallest already-placed element whose successor slot inside its own
block is still free.  ``delta_inverse`` replays the word, using each
label to pick the slot, and reads the permutation off the finished
blocks.  Cycles of the permutation correspond to b0 steps,
indecomposability to primitivity, and (for indecomposable inputs of
size >= 2) left-to-right maxima to b1 steps.

Both directions run in O(n log n).  The blocks share one flat slot
array in creation order, so "cyclically from the pivot" is a cyclic
range of positions; a Fenwick tree of free flags turns a label into a
rank query (``delta``) or a select (``delta_inverse``), and the pivot
comes from a queue of candidates that only moves forward.  The count of
free slots left of the pivot is kept between steps, so each placed
element costs one descent of the tree, which ranks or finds its slot and
takes it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    InvalidLabeling,
    InvalidPath,
    ParseError,
    PlacementOutOfRange,
)
from .perm import Permutation, cycles

__all__ = [
    "DELTA",
    "RV",
    "LabeledDyckPath",
    "validate_dyck",
    "is_primitive",
    "validate_labeling",
    "delta",
    "delta_inverse",
    "convert_label_scheme",
    "enum_dyck_paths",
    "enum_labelings",
    "count_labelings",
    "parse_labeled_path",
    "format_labeled_path",
]

DELTA = "delta"
RV = "rv"

_TOKEN = re.compile(r"(?:a|b\d+)\Z")


def _check_scheme(scheme: str) -> None:
    if scheme not in (DELTA, RV):
        raise ValueError(f"unknown labeling scheme: {scheme!r}")


@dataclass(frozen=True)
class LabeledDyckPath:
    """A token sequence over ``a`` / ``b<k>`` plus its labeling scheme.

    Construction checks token syntax only; semantic validity against the
    scheme is the business of ``validate_labeling``, so invalid labelings
    can be built and tested.
    """

    word: tuple[str, ...]
    scheme: str

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        _check_scheme(self.scheme)
        for tok in word:
            if not _TOKEN.match(tok):
                raise ParseError(f"bad path token: {tok!r}")

    def underlying(self) -> str:
        """The unlabeled a/b word."""
        return "".join("a" if t == "a" else "b" for t in self.word)

    def __str__(self) -> str:
        return format_labeled_path(self)


def _labeled_path(word: tuple[str, ...], scheme: str) -> LabeledDyckPath:
    """A LabeledDyckPath on tokens this module just wrote, all of them
    well formed, built without the checks of ``LabeledDyckPath(...)``."""
    lp = object.__new__(LabeledDyckPath)
    object.__setattr__(lp, "word", word)
    object.__setattr__(lp, "scheme", scheme)
    return lp


def _b_steps(word: Sequence[str]) -> Iterator[tuple[int, int, int]]:
    """(index, height in front, a's right before) for each b step of a
    Dyck word, given as a string or as tokens; raises InvalidPath at the
    first step after which the word cannot be completed as a Dyck word
    (a step below zero, one too high to come back down in the steps
    left, or one that is neither a nor b)."""
    height = run = 0
    last = len(word) - 1
    for i, step in enumerate(word):
        if step == "a":
            height += 1
            run += 1
            if height > last - i:
                break
        elif height and step[0] == "b":
            yield i, height, run
            height -= 1
            run = 0
        else:
            break
    else:
        return  # every height fitted the steps left, so the word ends at 0
    raise InvalidPath(f"not a Dyck word: {word!r}")


def _labels(scheme: str) -> tuple[int, int]:
    """The label rule of scheme as (peak, least): a b step right after an
    a takes label ``peak``, and any other b step takes a label from
    ``least`` up to the height in front of it."""
    return (0, 1) if scheme == DELTA else (1, 1)


def validate_dyck(word: str) -> bool:
    """True for a balanced a/b word whose prefixes never dip below zero."""
    try:
        for _ in _b_steps(word):
            pass
    except InvalidPath:
        return False
    return True


def is_primitive(word: str) -> bool:
    """True when the path only balances at the very end (length > 0)."""
    closing = [i for i, height, _ in _b_steps(word) if height == 1]
    return closing == [len(word) - 1]


def _checked_b_steps(lp: LabeledDyckPath) -> Iterator[tuple[int, int, int, int]]:
    """``_b_steps`` of a labeled path with each step's label appended;
    raises InvalidLabeling at the first label or step that breaks the
    scheme or the Dyck word."""
    word, scheme = lp.word, lp.scheme
    peak, least = _labels(scheme)
    try:
        for i, height, run in _b_steps(word):
            label = int(word[i][1:])
            if (label != peak) if run else not least <= label <= height:
                break
            yield i, height, run, label
        else:
            return
    except (InvalidPath, ValueError):  # ValueError: more digits than int() reads
        pass
    raise InvalidLabeling(f"not a valid {scheme} labeling: {format_labeled_path(lp)}")


def validate_labeling(lp: LabeledDyckPath) -> bool:
    """Check every b label against the path shape and the scheme rules."""
    try:
        for _ in _checked_b_steps(lp):
            pass
    except InvalidLabeling:
        return False
    return True


class _Slots:
    """Cycle blocks laid out in one flat array of n slots.

    Blocks sit in creation order: a block of k slots opens at the end of
    the slots already opened, its slot 0 taken by the cycle minimum and
    the rest reserved for the orbit in order.  Free slots are ranked 1,
    2, ... cyclically rightward from just after the pivot's slot, which
    in the flat array is the cyclic range over [0, opened) starting
    there.

    ``_tree`` is a Fenwick tree (Fenwick 1994) of free flags over the
    array, sized to a power of two so that a descent from its top stays
    in it.  Slots not yet opened, or past n, count as free; that is
    harmless, since every query stays below ``_opened``.  Placing an
    element is one descent: toward a given slot for a rank, adding up
    the nodes it steps past, or by count for a select.  The nodes a
    descent does not step past are exactly the nodes covering the slot
    it reaches, so it takes the slot by decrementing them on the way.
    Opening a block takes its slot 0 with one update walk.
    ``_before``, the free slots left of the pivot, is counted again only
    when the pivot moves, and drops by one when a slot left of it fills.

    The pivot is the smallest placed element whose successor slot in its
    own block is free.  Elements are placed in increasing order, so
    pivot candidates join ``_cands`` in increasing order; a candidate
    dies once its successor slot fills and never revives, so a head
    that only moves forward finds the pivot.  The pivot moves at most n
    times in all, each time for one prefix count, so a whole encoding
    or decoding costs O(n log n).
    """

    def __init__(self, n: int) -> None:
        self._n = n
        self._tree = [i & -i for i in range(1 << n.bit_length())]  # every slot free
        self._steps = [1 << k for k in reversed(range(n.bit_length()))]  # descent offsets
        self._elt = [0] * n  # element in each slot, 0 while free
        self._last = bytearray(n)  # 1 at the last slot of each block
        self._cands: list[int] = []  # slots of pivot candidates
        self._head = 0
        self._at = -1  # the pivot's slot when ``_before`` was counted
        self._before = 0
        self._opened = 0
        self._free = 0

    def _pivot(self) -> int:
        """The pivot's slot, with ``_before`` counted for it."""
        cands, elt = self._cands, self._elt
        head = self._head
        while elt[cands[head] + 1]:
            head += 1
        self._head = head
        at = cands[head]
        if at != self._at:
            self._at = at
            tree = self._tree
            before = 0
            i = at
            while i:
                before += tree[i]
                i &= i - 1
            self._before = before
        return at

    def _fill(self, element: int, pos: int) -> None:
        """Put ``element`` into the free slot ``pos``; the caller updates
        the tree."""
        elt = self._elt
        elt[pos] = element
        self._free -= 1
        if not self._last[pos] and not elt[pos + 1]:
            self._cands.append(pos)

    def open_block(self, element: int, k: int) -> None:
        """Open a block of k slots with ``element`` in its slot 0."""
        start = self._opened
        self._opened += k
        self._free += k
        self._last[start + k - 1] = 1
        tree = self._tree
        size = len(tree)
        i = start + 1
        while i < size:
            tree[i] -= 1
            i += i & -i
        self._fill(element, start)

    def take(self, element: int, pos: int) -> int:
        """Put ``element`` into the free slot ``pos``; the slot's cyclic
        rank counted from the pivot just before."""
        at = self._pivot()
        tree = self._tree
        left = node = 0  # free slots left of pos, in the nodes stepped past
        for step in self._steps:
            nxt = node + step
            if nxt <= pos:
                node = nxt
                left += tree[nxt]
            else:  # nxt covers pos
                tree[nxt] -= 1
        before = self._before
        if pos > at:
            rank = left + 1 - before
        else:
            rank = self._free - before + left + 1
            self._before = before - 1
        self._fill(element, pos)
        return rank

    def take_rank(self, element: int, rank: int) -> None:
        """Put ``element`` into the free slot whose cyclic rank from the
        pivot is ``rank``."""
        free = self._free
        if rank > free:
            raise PlacementOutOfRange(f"label {rank} with only {free} free slots")
        self._pivot()
        before = self._before
        after = free - before  # free slots right of the pivot
        if rank <= after:
            target = before + rank
        else:
            target = rank - after
            self._before = before - 1
        tree = self._tree
        pos = 0
        for step in self._steps:
            nxt = pos + step
            count = tree[nxt]
            if count < target:
                pos = nxt
                target -= count
            else:  # nxt covers the slot sought
                tree[nxt] = count - 1
        self._fill(element, pos)

    def to_permutation(self) -> Permutation:
        """Read each finished block as a cycle; an unfilled slot leaves a
        0 image, which ``Permutation`` rejects as ``NotABijection``."""
        elt, last = self._elt, self._last
        img = [0] * self._n
        start = 0
        for pos in range(self._n):
            if last[pos]:
                img[elt[pos] - 1] = elt[start]
                start = pos + 1
            else:
                img[elt[pos] - 1] = elt[pos + 1]
        return Permutation(tuple(img))


def delta(p: Permutation) -> LabeledDyckPath:
    """Encode a permutation as a labeled path of length 2n (delta scheme)."""
    n = p.n
    block_len = [0] * (n + 1)  # k at the minimum of each k-cycle
    slot_of = [0] * (n + 1)
    start = 0
    # cycles come sorted by minimum, the order in which their blocks open
    for c in cycles(p, canonical=False).cycles:
        block_len[c[0]] = len(c)
        for t, e in enumerate(c, start):
            slot_of[e] = t
        start += len(c)
    slots = _Slots(n)
    tokens: list[str] = []
    for i in range(1, n + 1):
        k = block_len[i]
        if k:
            tokens.extend(["a"] * k)
            tokens.append("b0")
            slots.open_block(i, k)
        else:
            tokens.append(f"b{slots.take(i, slot_of[i])}")
    return _labeled_path(tuple(tokens), DELTA)


def delta_inverse(lp: LabeledDyckPath) -> Permutation:
    """Decode a delta-labeled path back to its permutation."""
    if lp.scheme != DELTA:
        raise InvalidLabeling(f"expected scheme {DELTA!r}, got {lp.scheme!r}")
    if not lp.word:
        raise InvalidLabeling("empty word encodes no permutation")
    # the walk stops at the first bad step, before any block could run past
    # the n slots, and a label it passes is at most the height in front,
    # which is the number of free slots
    slots = _Slots(len(lp.word) // 2)
    element = 0
    for _, _, run, label in _checked_b_steps(lp):
        element += 1
        if run:
            slots.open_block(element, run)
        else:
            slots.take_rank(element, label)
    return slots.to_permutation()


def convert_label_scheme(lp: LabeledDyckPath) -> LabeledDyckPath:
    """Translate between the two schemes, fixing the unlabeled path.

    A peak b (one right after an a) swaps labels 0 and 1; any other b
    with label i and prefix g goes to |g|_a - |g|_b + 1 - i.  Applying
    the conversion twice gives back the input.
    """
    out = list(lp.word)
    peak = "b1" if lp.scheme == DELTA else "b0"
    for i, height, run, label in _checked_b_steps(lp):
        out[i] = peak if run else f"b{height + 1 - label}"
    return _labeled_path(tuple(out), RV if lp.scheme == DELTA else DELTA)


def enum_dyck_paths(n: int) -> Iterator[str]:
    """All Dyck words with n a's, lexicographically (a before b)."""
    if n < 0:
        raise ValueError("need n >= 0")

    def extend(word: list[str], na: int, nb: int) -> Iterator[str]:
        if na == n and nb == n:
            yield "".join(word)
            return
        if na < n:
            word.append("a")
            yield from extend(word, na + 1, nb)
            word.pop()
        if nb < na:
            word.append("b")
            yield from extend(word, na, nb + 1)
            word.pop()

    return extend([], 0, 0)


def _label_choices(word: str, scheme: str) -> list[tuple[int, range]]:
    # the index of each b step and the labels it admits; a word that is
    # not Dyck raises InvalidPath even when the scheme is unknown too
    steps = list(_b_steps(word))
    _check_scheme(scheme)
    peak, least = _labels(scheme)
    return [(i, range(peak, peak + 1) if run else range(least, h + 1)) for i, h, run in steps]


def enum_labelings(word: str, scheme: str = DELTA) -> Iterator[LabeledDyckPath]:
    """All valid labelings of a Dyck word under the given scheme."""
    choices = _label_choices(word, scheme)
    template = list(word)
    for combo in itertools.product(*(labels for _, labels in choices)):
        toks = template[:]
        for (i, _), label in zip(choices, combo):
            toks[i] = f"b{label}"
        yield _labeled_path(tuple(toks), scheme)


def count_labelings(word: str, scheme: str = DELTA) -> int:
    """Number of valid labelings: the product of (height + 1) over
    non-peak b steps (identical for both schemes)."""
    return math.prod(len(labels) for _, labels in _label_choices(word, scheme))


def parse_labeled_path(text: str, scheme: str = DELTA) -> LabeledDyckPath:
    """Parse whitespace-separated tokens like ``a a b0 b1``."""
    tokens = tuple(text.split())
    if not tokens:
        raise ParseError("empty path text")
    return LabeledDyckPath(tokens, scheme)


def format_labeled_path(lp: LabeledDyckPath) -> str:
    """Inverse of parse_labeled_path."""
    return " ".join(lp.word)
