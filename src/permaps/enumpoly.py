"""Exact counting sequences, polynomial families, and series identities.

All arithmetic is exact: integers, ``fractions.Fraction``, and sparse
integer polynomials in x and y.  The central sequence c_n counts
indecomposable permutations of S_n (1, 1, 3, 13, 71, 461, 3447, ...).
Refinements by cycle count c_{n,k} live next to the unsigned Stirling
numbers of the first kind, with generating polynomials

    A_n(x) = x(x+1)...(x+n-1)        (all of S_n by cycles)
    C_n(x) = sum_k c_{n,k} x^k       (indecomposables by cycles)

and the two families over labeled Dyck paths

    L_n(x,y), L'_n(x,y)   all/primitive paths of length 2n, x marking
                          peak steps (cycles) and y+height the rest
                          (left-to-right maxima on the primitive side)
    M_m(y),  M'_m(y)      all/primitive paths arising from loopless
                          pairings, y+height on every down step
                          (rooted maps with m edges by vertices).

c_n and C_n are each produced by two independent recurrences that are
cross-checked at every size (InternalMismatch on disagreement).  i_m
has one recurrence; verify's map-counts check compares it with an
exhaustive count of indecomposable fixed-point-free involutions, and
M'_m(1) = i_m ties it to the M family.

The path families and joint_n come from one walk per family over
(height, last step) states of Dyck paths, which sums the path weights
with the paths that share a state merged; each state is one int that
packs a polynomial's coefficients (Kronecker substitution), so a step
is a shift or a shift and an add.  One walk to size N yields every
size up to N.  The first-return recurrences check the walk exactly for
sizes up to 10, and at every size L_n(1,1) = n!, L'_n(x,1) = C_n(x),
joint_n(x,1) = A_n(x), M_m(1) = (2m-1)!!, M'_m(1) = i_m and the x/y
symmetry of L'_n (n >= 2) and joint_n are checked.

m!, (2m-1)!!, A_m, C_m, c_m and i_m each live in one append-only
module-level list, grown iteratively up to the largest size asked for;
entry m is computed from the entries below it.  The path families and
joint_n live in lists of the same kind, extended by one walk to the
size asked for.  Growth takes a lock and stored entries never change,
so concurrent callers are safe.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import InternalMismatch

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BivariatePoly",
    "SeriesInZ",
    "double_factorial_odd",
    "stirling_poly",
    "stirling_number",
    "c_count",
    "c_count_by_cycles",
    "c_poly",
    "i_count",
    "L_of_path",
    "L_family",
    "M_of_path",
    "M_family",
    "joint_perm_poly",
    "transitive_probability",
    "arques_beraud_check",
]


class BivariatePoly:
    """Sparse polynomial in x and y with exact integer coefficients.

    Immutable; monomials are held as {(x_degree, y_degree): coeff} with
    zeros dropped.  Text form sorts monomials by descending (x, y)
    degree and writes explicit ``*`` and ``^``: ``x^2*y + 3*x*y^2``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict | Iterable | None = None) -> None:
        acc: dict[tuple[int, int], int] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else (coeffs or ())
        for (px, py), v in items:
            if type(px) is not int or type(py) is not int or type(v) is not int:
                raise ValueError(f"exponents and coefficients must be ints: {(px, py)}: {v!r}")
            if px < 0 or py < 0:
                raise ValueError("negative exponent")
            if v:
                acc[(px, py)] = acc.get((px, py), 0) + v
        object.__setattr__(self, "_c", {k: v for k, v in acc.items() if v})

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "BivariatePoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, px: int, py: int, c: int = 1) -> "BivariatePoly":
        return cls({(px, py): c})

    @classmethod
    def x(cls) -> "BivariatePoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BivariatePoly":
        return cls({(0, 1): 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """(x_degree, y_degree, coeff) triples, descending by degree."""
        return tuple(
            (px, py, self._c[(px, py)])
            for px, py in sorted(self._c, reverse=True)
        )

    def coefficient(self, px: int, py: int) -> int:
        return self._c.get((px, py), 0)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def degree_x(self) -> int:
        return max((px for px, _ in self._c), default=0)

    def degree_y(self) -> int:
        return max((py for _, py in self._c), default=0)

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BivariatePoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        out = dict(self._c)
        for k, v in other._c.items():
            out[k] = out.get(k, 0) + v
        return BivariatePoly(out)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({k: -v for k, v in self._c.items()})

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            if type(other) is not int:  # bool is refused, as by the constructor
                return NotImplemented
            return BivariatePoly({k: v * other for k, v in self._c.items()})
        out: dict[tuple[int, int], int] = {}
        for (p1, q1), v1 in self._c.items():
            for (p2, q2), v2 in other._c.items():
                k = (p1 + p2, q1 + q2)
                out[k] = out.get(k, 0) + v1 * v2
        return BivariatePoly(out)

    __rmul__ = __mul__

    def evaluate(self, x, y):
        """Exact value at (x, y); accepts int or Fraction arguments."""
        return sum((v * x**px * y**py for (px, py), v in self._c.items()), 0)

    def subs_y_plus(self, k: int) -> "BivariatePoly":
        """Substitute y -> y + k, exactly."""
        out: dict[tuple[int, int], int] = {}
        for (px, py), v in self._c.items():
            for j in range(py + 1):
                key = (px, j)
                out[key] = out.get(key, 0) + v * math.comb(py, j) * k ** (py - j)
        return BivariatePoly(out)

    def swap_xy(self) -> "BivariatePoly":
        return BivariatePoly({(py, px): v for (px, py), v in self._c.items()})

    # -- text and JSON ---------------------------------------------------------

    def to_string(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for px, py, v in self.terms():
            factors = []
            if px == 1:
                factors.append("x")
            elif px > 1:
                factors.append(f"x^{px}")
            if py == 1:
                factors.append("y")
            elif py > 1:
                factors.append(f"y^{py}")
            mag = abs(v)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            term = "*".join(factors)
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)

    __str__ = to_string

    def __repr__(self) -> str:
        return f"BivariatePoly({self.to_string()})"

    def to_json_obj(self) -> list[dict]:
        return [{"x": px, "y": py, "c": str(v)} for px, py, v in self.terms()]

    @classmethod
    def from_json_obj(cls, obj: Sequence[dict]) -> "BivariatePoly":
        """Inverse of ``to_json_obj``: int exponents, each (x, y) once, and
        ``c`` an int or the decimal string written there; else ValueError."""
        try:
            items = [((t["x"], t["y"]), t["c"]) for t in obj]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed term: {exc!r}") from exc
        items = [(k, int(c) if type(c) is str and c == str(int(c)) else c) for k, c in items]
        poly = cls(items)  # checks the types first, so every key below is a pair of ints
        if len({k for k, _ in items}) < len(items):
            raise ValueError("a monomial appears twice")
        return poly


def _poly(coeffs: dict[tuple[int, int], int]) -> BivariatePoly:
    """A BivariatePoly on nonzero int coefficients keyed by pairs of
    nonnegative int degrees, built without the checks of
    ``BivariatePoly(...)``."""
    p = object.__new__(BivariatePoly)
    object.__setattr__(p, "_c", coeffs)
    return p


class _Packing:
    """Kronecker substitution: a polynomial in x and y with nonnegative
    coefficients at most bound is one int, whose slot i*stride + j (for
    j < stride) holds the coefficient of x^i y^j.  While every
    coefficient stays at most bound, int sums and products are the
    polynomial sums and products.  Slots are whole bytes wide, so
    unpacking slices bytes.  A rule (see the path polynomials) adds the
    b steps of a path walk: a shift for a peak monomial, a shift and an
    add for y + height."""

    def __init__(self, bound: int, stride: int, rule=None) -> None:
        self.width = -(-bound.bit_length() // 8)
        self.bits = 8 * self.width
        self.stride = stride
        self.peaks = rule and tuple(self.bits * (i * stride + j) for i, j in rule)

    def pack(self, poly: BivariatePoly) -> int:
        slots = [0] * (max((i * self.stride + j for i, j in poly._c), default=0) + 1)
        for (i, j), c in poly._c.items():
            slots[i * self.stride + j] = c
        return int.from_bytes(b"".join(c.to_bytes(self.width, "little") for c in slots), "little")

    def unpack(self, v: int, n: int) -> BivariatePoly:
        """The polynomial packed in v, whose degrees are at most n."""
        width, row = self.width, self.stride * self.width  # the bytes of one x degree
        raw = v.to_bytes(-(-v.bit_length() // 8), "little")
        coeffs = {}
        for i, at in enumerate(range(0, min(len(raw), (n + 1) * row), row)):
            for j in range(min(n + 1, self.stride)):
                c = int.from_bytes(raw[at + j * width : at + (j + 1) * width], "little")
                if c:
                    coeffs[i, j] = c
        return _poly(coeffs)

    def b_step(self, v: int, height: int, after_a: bool) -> int:
        """v times the weight of a b step that lands at height."""
        if after_a and self.peaks:
            return v << self.peaks[height == 0]
        return (v << self.bits) + height * v


class SeriesInZ:
    """Power series in z, truncated at a fixed order, with BivariatePoly
    coefficients.  Products truncate; all arithmetic stays exact."""

    __slots__ = ("order", "_coeffs")

    def __init__(self, coeffs: Sequence[BivariatePoly], order: int) -> None:
        if order < 0:
            raise ValueError("order must be >= 0")
        padded = list(coeffs[: order + 1])
        padded.extend(BivariatePoly.zero() for _ in range(order + 1 - len(padded)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_coeffs", tuple(padded))

    def __setattr__(self, name, value):
        raise AttributeError("SeriesInZ is immutable")

    @classmethod
    def zero(cls, order: int) -> "SeriesInZ":
        return cls([], order)

    @classmethod
    def constant(cls, poly: BivariatePoly, order: int) -> "SeriesInZ":
        return cls([poly], order)

    def coefficient(self, m: int) -> BivariatePoly:
        return self._coeffs[m]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SeriesInZ)
            and self.order == other.order
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self._coeffs))

    def __add__(self, other: "SeriesInZ") -> "SeriesInZ":
        if not isinstance(other, SeriesInZ):
            return NotImplemented
        self._check(other)
        return SeriesInZ(
            [a + b for a, b in zip(self._coeffs, other._coeffs)], self.order
        )

    def __sub__(self, other: "SeriesInZ") -> "SeriesInZ":
        if not isinstance(other, SeriesInZ):
            return NotImplemented
        return self + other.map_coeffs(BivariatePoly.__neg__)

    def __mul__(self, other: "SeriesInZ") -> "SeriesInZ":
        if not isinstance(other, SeriesInZ):
            return NotImplemented
        self._check(other)
        out = [BivariatePoly.zero() for _ in range(self.order + 1)]
        for i, a in enumerate(self._coeffs):
            if a.is_zero:
                continue
            for j in range(self.order + 1 - i):
                b = other._coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return SeriesInZ(out, self.order)

    def shift_z(self, k: int) -> "SeriesInZ":
        """Multiply by z^k, truncating at the fixed order."""
        return SeriesInZ([BivariatePoly.zero()] * k + list(self._coeffs), self.order)

    def map_coeffs(self, f: Callable[[BivariatePoly], BivariatePoly]) -> "SeriesInZ":
        return SeriesInZ([f(c) for c in self._coeffs], self.order)

    def inverse_one_minus(self) -> "SeriesInZ":
        """1 / (1 - V) for a series V with zero constant term."""
        if not self._coeffs[0].is_zero:
            raise ValueError("need zero constant term")
        one = BivariatePoly.constant(1)
        out = [one]
        for m in range(1, self.order + 1):
            acc = BivariatePoly.zero()
            for p in range(1, m + 1):
                if not self._coeffs[p].is_zero:
                    acc = acc + self._coeffs[p] * out[m - p]
            out.append(acc)
        return SeriesInZ(out, self.order)

    def _check(self, other: "SeriesInZ") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")


# --- append-only tables -------------------------------------------------------------

_GROWING = threading.RLock()


def _entry(table: list, m: int, step: Callable[[list, int], object]):
    # entry m of an append-only table whose entry j is step(table, j),
    # computed from the entries below j.  Appends happen under one lock
    # (reentrant: a step may grow another table), so no entry is ever
    # stored at the wrong index; stored entries never change, so reading
    # one needs no lock.
    if m >= len(table):
        with _GROWING:
            while len(table) <= m:
                table.append(step(table, len(table)))
    return table[m]


_FACTORIALS = [1]  # m!
_DOUBLE_FACTORIALS = [1]  # (2m-1)!!
_A = [BivariatePoly.constant(1)]  # A_m(x)
_C = [BivariatePoly.zero(), BivariatePoly.x()]  # C_m(x); C_0 = 0
_C_COUNTS = [0, 1]  # c_m; c_0 = 0
_I_COUNTS = [0]  # i_m; i_0 = 0


# --- scalar sequences -----------------------------------------------------------


def double_factorial_odd(m: int) -> int:
    """(2m-1)!! = 1*3*5*...*(2m-1); the count of pairings of 2m points."""
    if m < 0:
        raise ValueError("need m >= 0")
    return math.factorial(2 * m) // (math.factorial(m) << m)


def stirling_poly(n: int) -> BivariatePoly:
    """A_n(x) = x(x+1)...(x+n-1); coefficients are the unsigned Stirling
    numbers of the first kind (permutations of S_n by cycle count)."""
    if n < 0:
        raise ValueError("need n >= 0")
    return _entry(
        _A, n, lambda A, m: A[m - 1] * (BivariatePoly.x() + BivariatePoly.constant(m - 1))
    )


def stirling_number(n: int, k: int) -> int:
    """Permutations of S_n with exactly k cycles (s_{0,0} = 1)."""
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    return stirling_poly(n).coefficient(k, 0)


def _factorial(m: int) -> int:
    return _entry(_FACTORIALS, m, lambda f, j: f[j - 1] * j)


def _double_factorial(m: int) -> int:
    return _entry(_DOUBLE_FACTORIALS, m, lambda d, j: d[j - 1] * (2 * j - 1))


def _c_count_step(c: list, m: int) -> int:
    # two recurrences, checked against each other at every size m >= 2:
    #   c_m = m! - sum_{p<m} c_p (m-p)!
    #   c_m = sum_{p<m} p c_p (m-1-p)!
    _factorial(m)
    f = _FACTORIALS
    by_subtraction = f[m] - sum(c[p] * f[m - p] for p in range(1, m))
    by_weighting = sum(p * c[p] * f[m - 1 - p] for p in range(1, m))
    if by_subtraction != by_weighting:
        raise InternalMismatch(f"c_{m}: {by_subtraction} != {by_weighting}")
    return by_subtraction


def c_count(n: int) -> int:
    """Indecomposable permutations of S_n: 1, 1, 3, 13, 71, 461, 3447, ...

    The first call at a new largest n costs O(n^2) products of big
    integers (of about log2(n!) bits); smaller n are then read back."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _entry(_C_COUNTS, n, _c_count_step)


def c_count_by_cycles(n: int, k: int) -> int:
    """Indecomposable permutations of S_n with exactly k cycles."""
    if n < 2:
        raise ValueError("need n >= 2 (S_1 has the single 1-cycle permutation)")
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= {n - 1}, got {k}")
    return c_poly(n).coefficient(k, 0)


def _c_poly_step(C: list, n: int) -> BivariatePoly:
    # both recurrences on packed A and C, so each product is one int
    # product.  Every product and partial sum has nonnegative coefficients
    # at most those of A_n, whose sum is n!, so no slot carries; C_n >= 0,
    # so the subtraction borrows from no slot when the recurrences agree.
    stirling_poly(n)
    pack = _Packing(_factorial(n), 1)
    A = [pack.pack(a) for a in _A[: n + 1]]
    Cp = [pack.pack(c) for c in C]
    by_subtraction = A[n] - sum(A[n - p] * Cp[p] for p in range(1, n))
    by_weighting = sum(p * A[n - 1 - p] * Cp[p] for p in range(1, n))
    if by_subtraction != by_weighting:
        raise InternalMismatch(f"C_{n} recurrences disagree")
    return pack.unpack(by_weighting, n)


def c_poly(n: int) -> BivariatePoly:
    """C_n(x) = sum_k c_{n,k} x^k, computed by both companion recurrences

        C_n = A_n - sum_{p<n} A_{n-p} C_p
        C_n = sum_{p<n} p A_{n-1-p} C_p     (n >= 2)

    which are checked against each other at every size."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _entry(_C, n, _c_poly_step)


def _i_count_step(i: list, m: int) -> int:
    # i_m = (2m-1)!! - sum_{p<m} i_p (2m-2p-1)!!
    _double_factorial(m)
    d = _DOUBLE_FACTORIALS
    return d[m] - sum(i[p] * d[m - p] for p in range(1, m))


def i_count(m: int) -> int:
    """Indecomposable fixed-point-free involutions of S_{2m}: 1, 2, 10, 74, ..."""
    if m < 1:
        raise ValueError("need m >= 1")
    return _entry(_I_COUNTS, m, _i_count_step)


# --- path polynomials -------------------------------------------------------------
#
# A b step's weight depends only on the height it lands at and on whether an a
# came right before it (a peak): y + height, except that a peak weighs x in
# the L family and in joint_n, where a peak landing at height 0 weighs x*y.
# A rule names the (x, y) exponents of those two peak monomials, or is None
# for the M family, which has no peak case.

_L_RULE = ((1, 0), (1, 0))
_JOINT_RULE = ((1, 0), (1, 1))
_M_RULE = None

_RECURRENCE_LIMIT = 10  # the first-return recurrences are checked up to this size


def _path_packing(N: int, rule) -> _Packing:
    # every coefficient of a path sum of size <= N is at most its value at
    # x = y = 1: N! under the L and joint rules, (2N-1)!! under the M rule
    return _Packing(_factorial(N) if rule else _double_factorial(N), N + 1, rule)


def _walk(N: int, rule, floor: int, skip: range = range(0)) -> list:
    # [P_0, ..., P_N], None at the sizes in skip: P_n sums the path
    # weights under rule over the Dyck words of length 2n that stay at
    # height >= floor before their last step (floor 1: the primitive
    # words).  Words that reach the same (height, last step) state share
    # every later step weight, so the walk keeps one packed sum per state
    # (Flajolet 1980): up[h] over the prefixes at height h that end in a,
    # down[h] over the others.  A state is kept only while it can return
    # to height 0 by step 2N, so each prefix starts some word of size
    # <= N and its coefficients stay within the packing's bound.
    pack = _path_packing(N, rule)
    b_step = pack.b_step
    up, down = [0] * (N + 2), [0] * (N + 2)
    sums = [0] * (N + 1)
    if floor:
        up[1], start = 1, 1  # a primitive word opens with a
    else:
        down[0] = sums[0] = 1  # the empty word
        start = 0
    for i in range(start, 2 * N):  # i steps taken
        rise = 2 * N - i - 2  # the highest height an a step may leave
        next_up, next_down = [0] * (N + 2), [0] * (N + 2)
        for h in range(i % 2, min(i, 2 * N - i) + 1, 2):
            a, b = up[h], down[h]
            if h <= rise:
                next_up[h + 1] = a + b
            if h > floor:
                next_down[h - 1] = b_step(a, h - 1, True) + b_step(b, h - 1, False)
            elif h:  # floor 1, height 1: the primitive word of size (i+1)/2 closes
                sums[(i + 1) // 2] = b_step(a, 0, True) + b_step(b, 0, False)
        up, down = next_up, next_down
        if not floor and i % 2:
            sums[(i + 1) // 2] = down[0]
    return [None if n in skip else pack.unpack(v, n) for n, v in enumerate(sums)]


def _path_weight(word: str, rule) -> BivariatePoly:
    # product of the b-step weights along one word: the walk's step rule
    # on a single path, each step landing one below the height in front
    from .dyck import _b_steps

    steps = _b_steps(word)  # a word that is not Dyck fails before any packing
    pack = _path_packing(len(steps), rule)
    v = 1
    for _, height, run in steps:
        v = pack.b_step(v, height - 1, run > 0)
    return pack.unpack(v, len(steps))


def L_of_path(word: str) -> BivariatePoly:
    """Product over the b steps of a Dyck word: x when the step follows
    an a, otherwise y + height-in-front; the labeling-count generating
    monomial weight of the path."""
    return _path_weight(word, _L_RULE)


def M_of_path(word: str) -> BivariatePoly:
    """Product over the b steps of y + height-in-front, with no special
    peak case; the map-labeling weight of the path."""
    return _path_weight(word, _M_RULE)


def _expect(holds: bool, message: str) -> None:
    if not holds:
        raise InternalMismatch(message)


def _first_return(blocks: list, totals: list, n: int) -> BivariatePoly:
    # sum_{p=1}^{n} blocks[p] * totals[n-p]: a word is a first block, then the rest
    return sum((blocks[p] * totals[n - p] for p in range(1, n + 1)), BivariatePoly.zero())


def _at_y_1(poly: BivariatePoly) -> BivariatePoly:
    return BivariatePoly(((px, 0), v) for (px, _), v in poly._c.items())


def _walk_pair(name: str, size: str, rule, first: int, N: int) -> tuple[list, list]:
    # the walks over all and over primitive words up to size N; sizes
    # first..N are new, and those up to _RECURRENCE_LIMIT are checked
    # exactly against the first-return recurrences
    #   P'_1 = the weight of ab,   P'_n = y * P_{n-1}(x, y+1)   (n >= 2)
    #   P_n  = sum_{p=1}^{n} P'_p P_{n-p},   P_0 = 1
    # which read every smaller size; the stored sizes above it are skipped
    stored = range(_RECURRENCE_LIMIT + 1, first)
    total, prim = _walk(N, rule, 0, stored), _walk(N, rule, 1, stored)
    for n in range(first, min(N, _RECURRENCE_LIMIT) + 1):
        if n == 1:
            expected = BivariatePoly.monomial(*rule[1]) if rule else BivariatePoly.y()
        else:
            expected = BivariatePoly.y() * total[n - 1].subs_y_plus(1)
        _expect(
            prim[n] == expected and total[n] == _first_return(prim, total, n),
            f"{name}-family recurrence vs path sum at {size}={n}",
        )
    return total, prim


def _L_entries(first: int, N: int) -> list:
    L, Lp = _walk_pair("L", "n", _L_RULE, first, N)
    for n in range(first, N + 1):
        _expect(L[n].evaluate(1, 1) == _factorial(n), f"L_{n}(1,1) != {n}!")
        _expect(_at_y_1(Lp[n]) == c_poly(n), f"L'_{n}(x,1) != C_{n}(x)")
        _expect(n == 1 or Lp[n].swap_xy() == Lp[n], f"L'_{n} is not symmetric in x and y")
    return list(zip(L, Lp))[first:]


def _M_entries(first: int, N: int) -> list:
    M, Mp = _walk_pair("M", "m", _M_RULE, first, N)
    for m in range(first, N + 1):
        _expect(M[m].evaluate(1, 1) == _double_factorial(m), f"M_{m}(1) != (2*{m}-1)!!")
        _expect(Mp[m].evaluate(1, 1) == i_count(m), f"M'_{m}(1) != i_{m}")
    return list(zip(M, Mp))[first:]


def _joint_entries(first: int, N: int) -> list:
    J = _walk(N, _JOINT_RULE, 0, range(_RECURRENCE_LIMIT + 1, first))
    limit = min(N, _RECURRENCE_LIMIT)
    blocks = [None, BivariatePoly.monomial(1, 1)] + [L_family(p)[1] for p in range(2, limit + 1)]
    for n in range(first, N + 1):
        if n <= limit:
            _expect(J[n] == _first_return(blocks, J, n), f"joint recurrence vs path sum at n={n}")
        _expect(_at_y_1(J[n]) == stirling_poly(n), f"joint_{n}(x,1) != A_{n}(x)")
        _expect(J[n].swap_xy() == J[n], f"joint_{n} is not symmetric in x and y")
    return J[first:]


_L = [None]  # (L_n, L'_n); nothing at n = 0
_M = [None]  # (M_m, M'_m)
_JOINT = [None]  # joint_n


def _walked(table: list, n: int, entries: Callable[[int, int], list]):
    # entry n of a path-family table; entries(first, N) walks to size N
    # and returns the entries for sizes first..N, checked
    if n >= len(table):
        with _GROWING:
            if n >= len(table):
                table.extend(entries(len(table), n))
    return table[n]


def L_family(n: int) -> tuple[BivariatePoly, BivariatePoly]:
    """(L_n, L'_n): the sums of L_of_path over all / primitive Dyck words
    of length 2n, from one walk over (height, last step) states.  For
    n <= 10 they are checked against the coupled recurrences

        L'_n = y * L_{n-1}(x, y+1),   L'_1 = L_1 = x
        L_n  = L'_n + sum_{p<n} L'_p L_{n-p}

    and at every n against L_n(1, 1) = n!, L'_n(x, 1) = C_n(x) and, for
    n >= 2, the x/y symmetry of L'_n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _walked(_L, n, _L_entries)


def M_family(m: int) -> tuple[BivariatePoly, BivariatePoly]:
    """(M_m, M'_m): the sums of M_of_path over all / primitive Dyck words
    of length 2m, from one walk over (height, last step) states.  For
    m <= 10 they are checked against

        M'_m = y * M_{m-1}(y+1),   M'_1 = M_1 = y
        M_m  = M'_m + sum_{p<m} M'_p M_{m-p}

    and at every m against M_m(1) = (2m-1)!! and M'_m(1) = i_m."""
    if m < 1:
        raise ValueError("need m >= 1")
    return _walked(_M, m, _M_entries)


def joint_perm_poly(n: int) -> BivariatePoly:
    """Joint distribution of S_n by (cycles -> x, left-to-right maxima -> y).

    Composed from indecomposable blocks: a 1-point block weighs x*y (one
    cycle, one maximum) and a p-point block, p >= 2, weighs L'_p.  That is
    the L walk with a peak landing at height 0 weighing x*y, which is
    how it is computed; for n <= 10 it is checked against the block
    composition, and at every n against joint_n(x, 1) = A_n(x) and its
    x/y symmetry.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return _walked(_JOINT, n, _joint_entries)


def transitive_probability(n: int) -> Fraction:
    """Probability that a uniform pair of permutations of S_n acts
    transitively: c_{n+1} / (n * n!), exactly."""
    if n < 1:
        raise ValueError("need n >= 1")
    from fractions import Fraction  # imported here: no other command needs it

    return Fraction(c_count(n + 1), n * math.factorial(n))


def arques_beraud_check(order: int) -> SeriesInZ:
    """Residual of the rooted-map functional equation, exact through
    z^order.

    U(z, y) = sum_m z^m M'_{m+1}(y) counts rooted maps with m edges by
    vertices; the returned series is U - y - z*U(z,y)*U(z,y+1), which is
    identically zero when the M' family is consistent.
    """
    if order < 0:
        raise ValueError("need order >= 0")
    U = SeriesInZ([M_family(m + 1)[1] for m in range(order + 1)], order)
    shifted = U.map_coeffs(lambda P: P.subs_y_plus(1))
    residual = U - SeriesInZ.constant(BivariatePoly.y(), order) - (U * shifted).shift_z(1)
    return residual
