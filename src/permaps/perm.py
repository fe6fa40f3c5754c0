"""Permutations of {1..n} and the statistics the rest of the package lives on.

Everything is 1-indexed: a permutation ``p`` sends ``i`` to ``p(i)``,
which is ``p.images[i - 1]``.  Two text forms are supported: one-line
notation ``"3,1,2,5,4"`` and cycle notation ``"(1,4)(2,7,5,3)(6)(8,9)"``
(fixed points are never omitted, so the size is always the largest
element).

The canonical cycle form writes each cycle starting with its maximum and
orders cycles by increasing first element.  Flattening that form is the
first fundamental transform, a bijection of S_n that exchanges the
number of cycles with the number of left-to-right maxima.

A permutation is indecomposable (connected) when no proper prefix
{1..p}, p < n, is stable, i.e. ``max(a_1..a_p) > p`` for every p < n.
Every permutation factors uniquely into a concatenation of
indecomposable blocks; ``blocks``/``concat_blocks`` realize the two
directions.

Validation happens at the boundary: ``Permutation(...)``, the parsers
and ``from_cycles`` check that the images are plain ints forming a
bijection of 1..n.  Permutations the library derives from valid ones
(inverses, conjugates, blocks, cycles flattened or closed) are built by the
private ``_perm``, which trusts its images and skips that check.
The package's value types are frozen ``__slots__`` records over
``_Record``, which stand in for frozen dataclasses at less import cost.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import EmptyInput, NotABijection, ParseError, SizeMismatch

__all__ = [
    "Permutation",
    "CycleForm",
    "identity",
    "parse_permutation",
    "format_permutation",
    "format_cycles",
    "compose",
    "inverse",
    "cycles",
    "from_cycles",
    "lr_maxima",
    "rl_minima",
    "is_indecomposable",
    "blocks",
    "concat_blocks",
    "fundamental_transform",
    "fundamental_transform_inverse",
    "conjugate",
]


class _Record:
    """The fields named in ``__match_args__``, as in a dataclass: equal and
    hashed alike only within one class, shown as ``Name(field=value, ...)``,
    pickled through the constructor, frozen (``__init__`` sets each field by
    ``object.__setattr__``) unless declared ``frozen=False``."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True) -> None:
        if "__match_args__" in cls.__dict__:  # the field values in one C call
            cls._key = staticmethod(attrgetter(*cls.__match_args__))
        if not frozen:
            cls.__hash__ = None
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


class Permutation(_Record):
    """A bijection of {1..n}, stored as its tuple of images.

    >>> p = Permutation((3, 1, 2))
    >>> p(1), p(3), p.n
    (3, 2, 3)
    """

    __slots__ = __match_args__ = ("images",)

    def __init__(self, images: Iterable[int]) -> None:
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise NotABijection("a permutation needs at least one element")
        if not _is_bijection(images, n):
            raise NotABijection(f"not a bijection of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __repr__(self) -> str:
        return f"Permutation({','.join(map(str, self.images))})"


def _is_bijection(values: Sequence[int], n: int) -> bool:
    """Whether ``values`` are plain ints (not bools or floats that compare
    equal to them) listing each of 1..n exactly once: n of them whose set
    covers 1..n, three linear passes in C with no sort."""
    if {*map(type, values)} != {int} or len(values) != n:
        return False
    return {*values}.issuperset(range(1, n + 1))


_set_images = Permutation.images.__set__


def _perm(images: tuple[int, ...]) -> Permutation:
    """A Permutation on images already known to be a bijection of 1..n,
    built without the check of ``Permutation(...)``."""
    p = object.__new__(Permutation)
    _set_images(p, images)
    return p


class CycleForm(_Record):
    """Disjoint cycles partitioning {1..n}.

    ``canonical`` distinguishes the two conventions in use: canonical
    form starts every cycle at its maximum and sorts cycles by first
    element; orbit form starts every cycle at its minimum and sorts
    cycles by minimum.
    """

    __slots__ = __match_args__ = ("cycles", "canonical")

    def __init__(self, cycles: tuple[tuple[int, ...], ...], canonical: bool) -> None:
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "canonical", canonical)

    def __str__(self) -> str:
        return format_cycles(self)


def identity(n: int) -> Permutation:
    """The identity permutation on {1..n}."""
    if n < 1:
        raise NotABijection("a permutation needs at least one element")
    return _perm(tuple(range(1, n + 1)))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Composition a after b: the result sends i to a(b(i)).

    >>> compose(Permutation((2, 3, 1)), Permutation((2, 1, 3)))
    Permutation(3,2,1)
    """
    if a.n != b.n:
        raise SizeMismatch(f"cannot compose sizes {a.n} and {b.n}")
    return _perm(tuple([a.images[v - 1] for v in b.images]))


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation."""
    inv = [0] * p.n
    for i, v in enumerate(p.images, start=1):
        inv[v - 1] = i
    return _perm(tuple(inv))


def cycles(p: Permutation, canonical: bool = True) -> CycleForm:
    """Disjoint cycle decomposition of p.

    >>> str(cycles(Permutation((4, 7, 2, 1, 3, 6, 5, 9, 8))))
    '(4,1)(6)(7,5,3,2)(9,8)'
    >>> str(cycles(Permutation((4, 7, 2, 1, 3, 6, 5, 9, 8)), canonical=False))
    '(1,4)(2,7,5,3)(6)(8,9)'
    """
    images = p.images
    n = len(images)
    seen = bytearray(n + 1)
    orbits: list[tuple[int, ...]] = []
    # scanning downwards, the first unseen element of a cycle is its
    # maximum; scanning upwards, its minimum
    for i in range(n, 0, -1) if canonical else range(1, n + 1):
        if seen[i]:
            continue
        orb = [i]
        seen[i] = 1
        j = images[i - 1]
        while j != i:
            orb.append(j)
            seen[j] = 1
            j = images[j - 1]
        orbits.append(tuple(orb))
    if canonical:
        orbits.reverse()
    return CycleForm(tuple(orbits), canonical)


def _cycle_count(images: tuple[int, ...]) -> int:
    """The number of cycles of these images, counted in one scan."""
    seen = bytearray(len(images) + 1)
    count = 0
    for i, j in enumerate(images, 1):
        if not seen[i]:
            count += 1
            while not seen[j]:
                seen[j] = 1
                j = images[j - 1]
    return count


def from_cycles(cycs: Iterable[Sequence[int]], n: int | None = None) -> Permutation:
    """Build a permutation from disjoint cycles covering all of {1..n}.

    When ``n`` is omitted it is taken to be the largest element present,
    so omitted fixed points are rejected rather than silently added.
    """
    cycs = [tuple(c) for c in cycs]
    elements = [e for c in cycs for e in c]
    if not elements:
        raise NotABijection("no cycles given")
    if n is None:
        n = max(elements)
    if not _is_bijection(elements, n):
        raise NotABijection(f"cycles do not partition 1..{n}: {cycs}")
    img = [0] * (n + 1)
    for c in cycs:
        for i, e in enumerate(c):
            img[e] = c[(i + 1) % len(c)]
    return _perm(tuple(img[1:]))


_ONE_LINE_TOKEN = re.compile(r"[1-9]\d*\Z", re.ASCII)
_CYCLE_TEXT = re.compile(r"\s*(\(\s*[0-9]+\s*(,\s*[0-9]+\s*)*\)\s*)+\Z")  # no space in a number


def _ints(tokens: list[str], n: int) -> tuple[int, ...]:
    # a token with more digits than int() reads lies far outside 1..n,
    # the one range that n tokens can fill
    try:
        return tuple(int(s) for s in tokens)
    except ValueError:
        digits = max(map(len, tokens))
        raise NotABijection(f"an element of {digits} digits lies outside 1..{n}") from None


def parse_permutation(text: str, notation: str = "one-line") -> Permutation:
    """Parse one-line or cycle notation.

    >>> parse_permutation("(1,4)(2,7,5,3)(6)(8,9)", notation="cycle")
    Permutation(4,7,2,1,3,6,5,9,8)
    """
    if notation == "one-line":
        parts = [s.strip() for s in text.strip().split(",")]
        if not all(_ONE_LINE_TOKEN.match(s) for s in parts):
            raise ParseError(f"not comma-separated positive integers: {text!r}")
        return Permutation(_ints(parts, len(parts)))
    if notation == "cycle":
        if not _CYCLE_TEXT.match(text):
            raise ParseError(f"not parenthesized cycles: {text!r}")
        compact = re.sub(r"\s+", "", text)
        bodies = [body.split(",") for body in re.findall(r"\(([^()]*)\)", compact)]
        n = sum(map(len, bodies))
        cycs = [_ints(body, n) for body in bodies]
        if any(e == 0 for c in cycs for e in c):
            raise ParseError("cycle elements must be positive")
        return from_cycles(cycs)
    raise ValueError(f"unknown notation: {notation!r}")


def format_cycles(cf: CycleForm) -> str:
    """Render a cycle form as text, e.g. ``(4,1)(6)(7,5,3,2)(9,8)``."""
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cf.cycles)


def format_permutation(p: Permutation, notation: str = "one-line") -> str:
    """Render in one-line or (canonical) cycle notation."""
    if notation == "one-line":
        return ",".join(map(str, p.images))
    if notation == "cycle":
        return format_cycles(cycles(p))
    raise ValueError(f"unknown notation: {notation!r}")


def lr_maxima(p: Permutation) -> tuple[int, ...]:
    """Positions i whose value exceeds everything to the left.

    Position 1 always qualifies; the position of value n always closes
    the list.

    >>> lr_maxima(Permutation((6, 5, 7, 4, 2, 10, 3, 8, 9, 1)))
    (1, 3, 6)
    """
    out = []
    best = 0
    for i, v in enumerate(p.images, start=1):
        if v > best:
            out.append(i)
            best = v
    return tuple(out)


def rl_minima(p: Permutation) -> tuple[int, ...]:
    """Positions i whose value is below everything to the right.

    >>> rl_minima(Permutation((4, 6, 5, 7, 3, 8, 1, 9, 10, 2)))
    (7, 10)
    """
    images = p.images
    out = []
    low = len(images) + 1
    for i in range(len(images), 0, -1):
        v = images[i - 1]
        if v < low:
            out.append(i)
            low = v
    return tuple(reversed(out))


def is_indecomposable(p: Permutation) -> bool:
    """True when no proper prefix {1..p} is mapped onto itself.

    >>> is_indecomposable(Permutation((3, 1, 2, 5, 4)))
    False
    >>> is_indecomposable(Permutation((1,)))
    True
    """
    running = 0
    for i, v in enumerate(p.images[:-1], start=1):
        if v > running:
            running = v
        if running == i:
            return False
    return True


def blocks(p: Permutation) -> list[Permutation]:
    """Split into the unique concatenation of indecomposable blocks.

    >>> blocks(Permutation((3, 1, 2, 5, 4)))
    [Permutation(3,1,2), Permutation(2,1)]
    """
    out = []
    running = 0
    start = 0
    for i, v in enumerate(p.images, start=1):
        if v > running:
            running = v
        if running == i:
            out.append(_perm(tuple(v - start for v in p.images[start:i])))
            start = i
    return out


def concat_blocks(bs: Sequence[Permutation]) -> Permutation:
    """Concatenate permutations as blocks, shifting values past each block.

    Inverse of ``blocks`` whenever every block is indecomposable.
    """
    if not bs:
        raise EmptyInput("no blocks to concatenate")
    images: list[int] = []
    offset = 0
    for b in bs:
        images.extend(v + offset for v in b.images)
        offset += b.n
    return _perm(tuple(images))


def fundamental_transform(p: Permutation) -> Permutation:
    """Flatten the canonical cycle form into one-line notation.

    A bijection of S_n sending a permutation with k cycles to one with k
    left-to-right maxima (the cycle maxima become the maxima); it
    preserves indecomposability.

    >>> fundamental_transform(Permutation((4, 7, 2, 1, 3, 6, 5, 9, 8)))
    Permutation(4,1,6,7,5,3,2,9,8)
    """
    return _perm(tuple(e for c in cycles(p).cycles for e in c))


def fundamental_transform_inverse(p: Permutation) -> Permutation:
    """Close a cycle before each left-to-right maximum and multiply out.

    One pass, trusted: p is a bijection, so its cycles partition 1..n.

    >>> fundamental_transform_inverse(Permutation((4, 1, 6, 7, 5, 3, 2, 9, 8)))
    Permutation(4,7,2,1,3,6,5,9,8)
    """
    images = p.images
    out = [0] * (len(images) + 1)
    first = images[0]  # the open cycle's first value, its maximum
    for prev, v in zip(images, (*images[1:], len(images) + 1)):
        if v > first:  # v opens the next cycle (n+1 closes the last)
            out[prev], first = first, v
        else:
            out[prev] = v
    return _perm(tuple(out[1:]))


def conjugate(p: Permutation, phi: Permutation) -> Permutation:
    """Relabel p through phi: the result sends i to phi^{-1}(p(phi(i)))."""
    if p.n != phi.n:
        raise SizeMismatch(f"cannot conjugate sizes {p.n} and {phi.n}")
    inv = [0] * (p.n + 1)
    for i, v in enumerate(phi.images, start=1):
        inv[v] = i
    images = p.images
    return _perm(tuple([inv[images[v - 1]] for v in phi.images]))
