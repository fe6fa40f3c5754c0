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
``_b_steps``; the schemes differ only in the peak label, ``_peak_label``.

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
range of positions.  The free slots but the minima's, which fill as
their blocks open, are kept as sorted runs of at most 1024 under a
Fenwick tree of run lengths; a label is a rank query (``delta``) or a
select (``delta_inverse``).  ``delta`` reads the pivot off the images,
the smallest e with sigma(e) >= i when i is placed; ``delta_inverse``,
which does not know sigma yet, keeps a queue of candidates.  Each
element but a minimum costs one descent over the runs, then a bisect
or an index into one run and a delete from it.  Both share one table
of the tokens b0..b4095 and format or parse larger labels themselves.
Each direction is one loop with its state in locals.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
from bisect import bisect_left
from typing import Iterator, Sequence

from .errors import InvalidLabeling, InvalidPath, ParseError
from .perm import Permutation, _perm, _Record

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

_TOKEN = re.compile(r"(?:a|b\d+)\Z", re.ASCII)


def _check_scheme(scheme: str) -> None:
    if scheme not in (DELTA, RV):
        raise ValueError(f"unknown labeling scheme: {scheme!r}")


class LabeledDyckPath(_Record):
    """A token sequence over ``a`` / ``b<k>`` plus its labeling scheme.

    Construction checks token syntax only; semantic validity against the
    scheme is the business of ``validate_labeling``, so invalid labelings
    can be built and tested.
    """

    __slots__ = __match_args__ = ("word", "scheme")

    def __init__(self, word: Sequence[str], scheme: str) -> None:
        word = tuple(word)
        _check_scheme(scheme)
        for tok in word:
            if not _TOKEN.match(tok):
                raise ParseError(f"bad path token: {tok!r}")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "scheme", scheme)

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


def _b_steps(word: Sequence[str]) -> list[tuple[int, int, int]]:
    """(index, height in front, a's right before) for each b step of a
    Dyck word, given as a string or as tokens; raises InvalidPath at the
    first step after which the word cannot be completed as a Dyck word
    (a step below zero, one too high to come back down in the steps
    left, or one that is neither a nor b)."""
    steps = []
    height = run = 0
    last = len(word) - 1
    for i, step in enumerate(word):
        if step == "a":
            height += 1
            run += 1
            if height > last - i:
                break
        elif height and step[0] == "b":
            steps.append((i, height, run))
            height -= 1
            run = 0
        else:
            break
    else:  # every height fitted the steps left, so the word ends at 0
        return steps
    raise InvalidPath(f"not a Dyck word: {word!r}")


def _peak_label(scheme: str) -> int:
    """The label of a b step right after an a under scheme; any other b
    step takes a label from 1 up to the height in front of it."""
    return 0 if scheme == DELTA else 1


def validate_dyck(word: str) -> bool:
    """True for a balanced a/b word whose prefixes never dip below zero."""
    try:
        _b_steps(word)
    except InvalidPath:
        return False
    return True


def is_primitive(word: str) -> bool:
    """True when the path only balances at the very end (length > 0)."""
    closing = [i for i, height, _ in _b_steps(word) if height == 1]
    return closing == [len(word) - 1]


def _checked_b_steps(lp: LabeledDyckPath) -> list[tuple[int, int, int, int]]:
    """``_b_steps`` of a labeled path with each step's label appended;
    raises InvalidLabeling at the first label or step that breaks the
    scheme or the Dyck word."""
    word, scheme = lp.word, lp.scheme
    peak = _peak_label(scheme)
    steps = []
    try:
        for i, height, run in _b_steps(word):
            label = _LABEL_OF.get(word[i])
            if label is None:  # zero-padded, or past the shared table
                label = int(word[i][1:])
            if (label != peak) if run else not 1 <= label <= height:
                break
            steps.append((i, height, run, label))
        else:
            return steps
    except (InvalidPath, ValueError):  # ValueError: more digits than int() reads
        pass
    raise InvalidLabeling(f"not a valid {scheme} labeling: {format_labeled_path(lp)}")


def validate_labeling(lp: LabeledDyckPath) -> bool:
    """Check every b label against the path shape and the scheme rules."""
    try:
        _checked_b_steps(lp)
    except InvalidLabeling:
        return False
    return True


_RUN_BITS = 10  # run r holds the free slots in [1024 r, 1024 (r + 1))


class _Slots:
    """Cycle blocks laid out in one flat array of n slots.

    Blocks sit in creation order: a block of k slots opens at the end of
    the slots already opened, its slot 0 taken by the cycle minimum and
    the rest reserved for the orbit in order.  Free slots are ranked 1,
    2, ... cyclically rightward from just after the pivot's slot, which
    in the flat array is the cyclic range over [0, opened) starting
    there.

    The free slots are kept as sorted runs, one per 1024 slots, under a
    Fenwick tree (Fenwick 1994) of the run lengths.  The tree is sized to
    a power of two above the run count, so that a descent from its top
    stays in it.  A minimum fills its slot the moment its block opens,
    so the runs start with every other slot and never hold a minimum's.
    Slots of blocks not yet opened count as free; that is harmless,
    since all of these lie right of every opened slot and no count
    reaches them.  Placing an element is one descent: toward a given run
    for a rank, adding up the nodes it steps past, or by count for a
    select.  The nodes a descent does not step past are exactly the
    nodes covering the run it reaches, so it takes the slot by
    decrementing them on the way, then by deleting it from its run,
    which moves at most 1024 entries.  The run length is a constant, so
    a placement costs O(log n).

    The pivot is the smallest placed element whose successor slot in its
    own block is free.  Once that slot fills, no later step makes it the
    pivot again, so ``delta`` and ``delta_inverse`` find it with a head
    that only moves forward.  They count the free slots left of the
    pivot again only when the head moves, at most n times in all, and
    drop that count by one when a slot left of it fills; a whole
    encoding or decoding costs O(n log n).
    """

    def __init__(self, orbit_slot: bytes) -> None:
        # orbit_slot: 1 at each slot but those of the cycle minima
        size = 1 << _RUN_BITS
        self.runs = [
            list(itertools.compress(range(s, s + size), orbit_slot[s : s + size]))
            for s in range(0, len(orbit_slot), size)
        ]
        bits = len(self.runs).bit_length()
        ends = [0, *itertools.accumulate(map(len, self.runs))]  # free slots left of each run
        ends += ends[-1:] * ((1 << bits) - len(ends))  # node j sums runs [j - (j & -j), j)
        self.tree = [ends[j] - ends[j & (j - 1)] for j in range(1 << bits)]
        self.steps = [1 << k for k in reversed(range(bits))]  # descent offsets

    def free_before(self, pos: int) -> int:
        """The number of free slots left of slot ``pos``."""
        r = pos >> _RUN_BITS
        count = bisect_left(self.runs[r], pos)
        tree = self.tree
        while r:
            count += tree[r]
            r &= r - 1
        return count


# the tokens b0, b1, ... and their labels, shared by all calls: grown under one lock, so
# that no token lands at a wrong index, and capped, so that no long path keeps them large
_LABEL_CAP = 4096
_LABELS: list[str] = []
_LABEL_OF: dict[str, int] = {}
_GROWING = threading.Lock()


def _label_tokens(n: int) -> list[str]:
    """The tokens b0..bn, the shared table's own list below the cap."""
    if len(_LABELS) < min(n + 1, _LABEL_CAP):
        with _GROWING:
            for k in range(len(_LABELS), min(n + 1, _LABEL_CAP)):
                _LABELS.append(f"b{k}")
                _LABEL_OF[_LABELS[k]] = k
    return _LABELS if n < _LABEL_CAP else _LABELS + [f"b{k}" for k in range(_LABEL_CAP, n + 1)]


def delta(p: Permutation) -> LabeledDyckPath:
    """Encode a permutation as a labeled path of length 2n (delta scheme)."""
    images = p.images
    n = len(images)
    block_len = [0] * (n + 1)  # k at the minimum of each k-cycle
    slot_of = [0] * (n + 1)
    orbit_slot = bytearray(b"\x01") * n  # 0 at each cycle minimum's slot
    opened = 0
    # an upward scan meets each cycle at its minimum, in the order blocks
    # open; only 1 takes slot 0, so elsewhere slot 0 marks a cycle not walked
    for i in range(1, n + 1):
        if slot_of[i]:
            continue
        slot_of[i], t, e = opened, opened + 1, images[i - 1]
        orbit_slot[opened] = 0
        while e != i:
            slot_of[e] = t
            t, e = t + 1, images[e - 1]
        block_len[i], opened = t - opened, t
    slots = _Slots(orbit_slot)
    runs, tree, steps = slots.runs, slots.tree, slots.steps
    labels = _label_tokens(n)
    tokens: list[str] = []
    # placing i, the pivot is the smallest e with images[e - 1] >= i: an
    # e < i on the arc of i's cycle into i qualifies, so there is one
    head = free = before = at = 0  # the pivot is element head + 1, at slot ``at``
    for i in range(1, n + 1):
        k = block_len[i]
        if k:  # a new block opens right of every other slot
            tokens.extend(["a"] * k)
            tokens.append("b0")
            free += k - 1
            continue
        if images[head] < i:
            head += 1
            while images[head] < i:
                head += 1
            at = slot_of[head + 1]
            before = slots.free_before(at)
        pos = slot_of[i]
        r = pos >> _RUN_BITS
        left = node = 0  # free slots left of run r, in the nodes stepped past
        for step in steps:
            nxt = node + step
            if nxt <= r:
                node = nxt
                left += tree[nxt]
            else:  # nxt covers run r
                tree[nxt] -= 1
        run = runs[r]
        j = bisect_left(run, pos)
        del run[j]
        left += j
        if pos > at:
            tokens.append(labels[left + 1 - before])
        else:
            tokens.append(labels[free - before + left + 1])
            before -= 1
        free -= 1
    return _labeled_path(tuple(tokens), DELTA)


_STEP_MARKS = bytes.maketrans(b"a0123456789", b"\x01dddddddddd")  # label digits: d


def delta_inverse(lp: LabeledDyckPath) -> Permutation:
    """Decode a delta-labeled path back to its permutation."""
    if lp.scheme != DELTA:
        raise InvalidLabeling(f"expected scheme {DELTA!r}, got {lp.scheme!r}")
    word = lp.word
    if not word:
        raise InvalidLabeling("empty word encodes no permutation")
    # the walk keeps the rules of _checked_b_steps and stops at the first
    # bad step, before any block could run past the n slots; a label it
    # passes is at most the height in front, which is the number of free
    # slots, so every select finds a slot.  Each a step is a slot, and the
    # first a of each run, the one after a label, is a cycle minimum's
    marks = (b"d" + "".join(word).encode()).translate(_STEP_MARKS, b"b")
    slots = _Slots(marks.replace(b"d\x01", b"d\x00").translate(None, b"d"))
    runs, tree, steps = slots.runs, slots.tree, slots.steps
    label_of = _LABEL_OF
    n = len(word) // 2
    # succ: the element in the next slot of each slot's block, cyclically, 0 while
    # unknown; its extra entry makes slot n a dead candidate that the head moves past
    succ = [0] * n + [1]
    order: list[int] = []  # the slot of each element placed
    cands = [n]  # slots of pivot candidates
    end = len(word) - 1
    height = ups = element = opened = head = free = before = at = 0
    for i, tok in enumerate(word):
        if tok == "a":
            height += 1
            ups += 1
            if height > end - i:
                break
            continue
        label = label_of.get(tok)
        if label is None:  # zero-padded, or past the shared table
            try:
                label = int(tok[1:])
            except ValueError:  # more digits than int() reads
                break
        # a b step at height 0 follows no a and admits no label in 1..0
        if (label != 0) if ups else not 1 <= label <= height:
            break
        height -= 1
        element += 1
        if ups:  # a new block opens right of every other slot
            pos = opened
            opened += ups
            free += ups - 1
            succ[opened - 1] = element
            ups = 0
        else:
            if succ[cands[head]]:
                head += 1
                while succ[cands[head]]:
                    head += 1
                at = cands[head]
                before = slots.free_before(at)
            after = free - before  # free slots right of the pivot
            if label <= after:
                target = before + label
            else:
                target = label - after
                before -= 1
            r = 0
            for step in steps:
                nxt = r + step
                count = tree[nxt]
                if count < target:
                    r = nxt
                    target -= count
                else:  # nxt covers the run sought
                    tree[nxt] = count - 1
            pos = runs[r].pop(target - 1)
            free -= 1
            succ[pos - 1] = element
        order.append(pos)
        if not succ[pos]:
            cands.append(pos)
    else:
        return _perm(tuple(map(succ.__getitem__, order)))
    raise InvalidLabeling(f"not a valid {DELTA} labeling: {format_labeled_path(lp)}")


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
    """All Dyck words with n a's, lexicographically (a before b): from
    a^n b^n, the rightmost a with more b's than a's from it to the end
    turns b, and the steps after it are rewritten a's first."""
    if n < 0:
        raise ValueError("need n >= 0")
    word = "a" * n + "b" * n
    while True:
        yield word
        ups = downs = 0
        for i in range(2 * n - 1, -1, -1):
            if word[i] == "b":
                downs += 1
                continue
            ups += 1
            if downs > ups:
                word = word[:i] + "b" + "a" * ups + "b" * (downs - 1)
                break
        else:
            return


def _label_choices(word: str, scheme: str) -> list[tuple[int, range]]:
    # the index of each b step and the labels it admits; a word that is
    # not Dyck raises InvalidPath even when the scheme is unknown too
    steps = _b_steps(word)
    _check_scheme(scheme)
    peak = _peak_label(scheme)
    return [(i, range(peak, peak + 1) if run else range(1, h + 1)) for i, h, run in steps]


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
