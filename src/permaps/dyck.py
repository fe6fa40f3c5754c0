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
comes from a queue of candidates that only moves forward.
"""

from __future__ import annotations

import itertools
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

_TOKEN = re.compile(r"a|b\d+\Z")


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


def validate_dyck(word: str) -> bool:
    """True for a balanced a/b word whose prefixes never dip below zero."""
    height = 0
    for ch in word:
        if ch == "a":
            height += 1
        elif ch == "b":
            height -= 1
            if height < 0:
                return False
        else:
            return False
    return height == 0


def is_primitive(word: str) -> bool:
    """True when the path only balances at the very end (length > 0)."""
    if not validate_dyck(word):
        raise InvalidPath(f"not a Dyck word: {word!r}")
    if not word:
        return False
    height = 0
    for ch in word[:-1]:
        height += 1 if ch == "a" else -1
        if height == 0:
            return False
    return True


def _label(tok: str) -> int:
    return int(tok[1:])


def validate_labeling(lp: LabeledDyckPath) -> bool:
    """Check every b label against the path shape and the scheme rules."""
    if not validate_dyck(lp.underlying()):
        return False
    na = nb = 0
    prev = ""
    for tok in lp.word:
        if tok == "a":
            na += 1
        else:
            lab = _label(tok)
            if lp.scheme == DELTA:
                if prev == "a":
                    if lab != 0:
                        return False
                elif not 1 <= lab <= na - nb:
                    return False
            else:
                if prev == "a" and lab != 1:
                    return False
                if not 1 <= lab <= na - nb:
                    return False
            nb += 1
        prev = tok[0]
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
    array.  Slots not yet opened count as free; that is harmless, since
    every query stays below ``_opened``.  A rank is a difference of two
    prefix counts and a select is one descent of the tree, each
    O(log n).

    The pivot is the smallest placed element whose successor slot in its
    own block is free.  Elements are placed in increasing order, so
    pivot candidates join ``_cands`` in increasing order; a candidate
    dies once its successor slot fills and never revives, so a head
    that only moves forward finds the pivot in amortised O(1).  A whole
    encoding or decoding therefore costs O(n log n).
    """

    def __init__(self, n: int) -> None:
        self._n = n
        self._tree = [i & -i for i in range(n + 1)]  # every slot free
        self._elt = [0] * n  # element in each slot, 0 while free
        self._last = bytearray(n)  # 1 at the last slot of each block
        self._cands: list[int] = []  # slots of pivot candidates
        self._head = 0
        self._opened = 0
        self._free = 0

    def _count(self, i: int) -> int:
        """Free slots among positions [0, i)."""
        tree = self._tree
        total = 0
        while i:
            total += tree[i]
            i &= i - 1
        return total

    def _pivot(self) -> int:
        cands, elt = self._cands, self._elt
        head = self._head
        while elt[cands[head] + 1]:
            head += 1
        self._head = head
        return cands[head]

    def place(self, element: int, pos: int) -> None:
        """Put ``element`` into the free slot ``pos``."""
        elt, tree = self._elt, self._tree
        elt[pos] = element
        self._free -= 1
        i = pos + 1
        while i <= self._n:
            tree[i] -= 1
            i += i & -i
        if not self._last[pos] and not elt[pos + 1]:
            self._cands.append(pos)

    def open_block(self, element: int, k: int) -> None:
        """Open a block of k slots with ``element`` in its slot 0."""
        start = self._opened
        self._opened += k
        self._free += k
        self._last[start + k - 1] = 1
        self.place(element, start)

    def rank(self, pos: int) -> int:
        """Cyclic rank of the free slot ``pos`` counted from the pivot."""
        before = self._count(self._pivot() + 1)
        upto = self._count(pos + 1)
        return upto - before if upto > before else self._free - before + upto

    def select(self, rank: int) -> int:
        """The free slot whose cyclic rank from the pivot is ``rank``."""
        if rank > self._free:
            raise PlacementOutOfRange(f"label {rank} with only {self._free} free slots")
        before = self._count(self._pivot() + 1)
        after = self._free - before  # free slots right of the pivot
        target = before + rank if rank <= after else rank - after
        tree, n = self._tree, self._n
        pos = 0
        step = 1 << (n.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= n and tree[nxt] < target:
                pos = nxt
                target -= tree[nxt]
            step >>= 1
        return pos

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
            tokens.append(f"b{slots.rank(slot_of[i])}")
            slots.place(i, slot_of[i])
    return _labeled_path(tuple(tokens), DELTA)


def delta_inverse(lp: LabeledDyckPath) -> Permutation:
    """Decode a delta-labeled path back to its permutation."""
    if lp.scheme != DELTA:
        raise InvalidLabeling(f"expected scheme {DELTA!r}, got {lp.scheme!r}")
    if not lp.word:
        raise InvalidLabeling("empty word encodes no permutation")
    if not validate_labeling(lp):
        raise InvalidLabeling(f"not a valid delta labeling: {format_labeled_path(lp)}")
    slots = _Slots(len(lp.word) // 2)
    element = 0
    run_a = 0
    for tok in lp.word:
        if tok == "a":
            run_a += 1
            continue
        element += 1
        lab = _label(tok)
        if lab == 0:
            slots.open_block(element, run_a)
        else:
            slots.place(element, slots.select(lab))
        run_a = 0
    return slots.to_permutation()


def convert_label_scheme(lp: LabeledDyckPath) -> LabeledDyckPath:
    """Translate between the two schemes, fixing the unlabeled path.

    A peak b (one right after an a) swaps labels 0 and 1; any other b
    with label i and prefix g goes to |g|_a - |g|_b + 1 - i.  Applying
    the conversion twice gives back the input.
    """
    if not validate_labeling(lp):
        raise InvalidLabeling(f"not a valid {lp.scheme} labeling: {format_labeled_path(lp)}")
    out: list[str] = []
    na = nb = 0
    prev = ""
    for tok in lp.word:
        if tok == "a":
            na += 1
            out.append("a")
        else:
            if prev == "a":
                out.append("b1" if lp.scheme == DELTA else "b0")
            else:
                out.append(f"b{na - nb + 1 - _label(tok)}")
            nb += 1
        prev = tok[0]
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


def _label_choices(word: str, scheme: str) -> list[tuple[int, ...]]:
    choices: list[tuple[int, ...]] = []
    na = nb = 0
    prev = ""
    for ch in word:
        if ch == "a":
            na += 1
        else:
            if prev == "a":
                choices.append((0,) if scheme == DELTA else (1,))
            else:
                choices.append(tuple(range(1, na - nb + 1)))
            nb += 1
        prev = ch
    return choices


def enum_labelings(word: str, scheme: str = DELTA) -> Iterator[LabeledDyckPath]:
    """All valid labelings of a Dyck word under the given scheme."""
    if not validate_dyck(word):
        raise InvalidPath(f"not a Dyck word: {word!r}")
    _check_scheme(scheme)
    choices = _label_choices(word, scheme)
    b_positions = [i for i, ch in enumerate(word) if ch == "b"]
    template = list(word)
    for combo in itertools.product(*choices):
        toks = template[:]
        for pos, lab in zip(b_positions, combo):
            toks[pos] = f"b{lab}"
        yield _labeled_path(tuple(toks), scheme)


def count_labelings(word: str, scheme: str = DELTA) -> int:
    """Number of valid labelings: the product of (height + 1) over
    non-peak b steps (identical for both schemes)."""
    if not validate_dyck(word):
        raise InvalidPath(f"not a Dyck word: {word!r}")
    _check_scheme(scheme)
    total = 1
    for c in _label_choices(word, scheme):
        total *= len(c)
    return total


def parse_labeled_path(text: str, scheme: str = DELTA) -> LabeledDyckPath:
    """Parse whitespace-separated tokens like ``a a b0 b1``."""
    tokens = tuple(text.split())
    if not tokens:
        raise ParseError("empty path text")
    return LabeledDyckPath(tokens, scheme)


def format_labeled_path(lp: LabeledDyckPath) -> str:
    """Inverse of parse_labeled_path."""
    return " ".join(lp.word)
