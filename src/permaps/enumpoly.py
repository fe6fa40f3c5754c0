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
M'_m(1) = i_m ties it to the M family.  The path families are
cross-checked, for n <= 10, against the sum of the path weights over
all Dyck paths, taken step by step with the paths that share a
(height, last step) state merged.

m!, (2m-1)!!, A_m, C_m, c_m and i_m each live in one append-only
module-level list, grown iteratively up to the largest size asked for;
entry m is computed from the entries below it.  Growth takes a lock and
stored entries never change, so concurrent callers are safe.  The path
families and joint_perm_poly are cached by functools.lru_cache.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .dyck import validate_dyck
from .errors import InternalMismatch, InvalidPath

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
            px, py, v = int(px), int(py), int(v)
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
        out = dict(self._c)
        for k, v in other._c.items():
            out[k] = out.get(k, 0) + v
        return BivariatePoly(out)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({k: -v for k, v in self._c.items()})

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def __mul__(self, other) -> "BivariatePoly":
        if isinstance(other, int):
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
        return cls({(int(t["x"]), int(t["y"])): int(t["c"]) for t in obj})


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
        self._check(other)
        return SeriesInZ(
            [a + b for a, b in zip(self._coeffs, other._coeffs)], self.order
        )

    def __sub__(self, other: "SeriesInZ") -> "SeriesInZ":
        return self + other.map_coeffs(BivariatePoly.__neg__)

    def __mul__(self, other: "SeriesInZ") -> "SeriesInZ":
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


def _c_count_step(c: list, m: int) -> int:
    # two recurrences, checked against each other at every size m >= 2:
    #   c_m = m! - sum_{p<m} c_p (m-p)!
    #   c_m = sum_{p<m} p c_p (m-1-p)!
    f = _FACTORIALS
    _entry(f, m, lambda t, j: t[j - 1] * j)
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
    stirling_poly(n)
    A = _A
    by_subtraction = A[n]
    by_weighting = BivariatePoly.zero()
    for p in range(1, n):
        by_subtraction = by_subtraction - A[n - p] * C[p]
        by_weighting = by_weighting + p * (A[n - 1 - p] * C[p])
    if by_subtraction != by_weighting:
        raise InternalMismatch(f"C_{n} recurrences disagree")
    return by_subtraction


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
    d = _DOUBLE_FACTORIALS
    _entry(d, m, lambda t, j: t[j - 1] * (2 * j - 1))
    return d[m] - sum(i[p] * d[m - p] for p in range(1, m))


def i_count(m: int) -> int:
    """Indecomposable fixed-point-free involutions of S_{2m}: 1, 2, 10, 74, ..."""
    if m < 1:
        raise ValueError("need m >= 1")
    return _entry(_I_COUNTS, m, _i_count_step)


# --- path polynomials -------------------------------------------------------------

_PATH_SUM_LIMIT = 10


def _b_weight(height: int, after_a: bool, peak: BivariatePoly | None) -> BivariatePoly:
    # the weight of a b step that lands at height: peak (when given)
    # right after an a, otherwise y + height
    if peak is not None and after_a:
        return peak
    return BivariatePoly({(0, 1): 1, (0, 0): height})


def _path_weight(word: str, peak: BivariatePoly | None) -> BivariatePoly:
    # product of the b-step weights along one word
    if not validate_dyck(word):
        raise InvalidPath(f"not a Dyck word: {word!r}")
    out = BivariatePoly.constant(1)
    height = 0
    prev = ""
    for ch in word:
        if ch == "a":
            height += 1
        else:
            height -= 1
            out = out * _b_weight(height, prev == "a", peak)
        prev = ch
    return out


def L_of_path(word: str) -> BivariatePoly:
    """Product over the b steps of a Dyck word: x when the step follows
    an a, otherwise y + height-in-front; the labeling-count generating
    monomial weight of the path."""
    return _path_weight(word, BivariatePoly.x())


def M_of_path(word: str) -> BivariatePoly:
    """Product over the b steps of y + height-in-front, with no special
    peak case; the map-labeling weight of the path."""
    return _path_weight(word, None)


def _path_sum(n: int, peak: BivariatePoly | None, floor: int) -> BivariatePoly:
    # sum of _path_weight over the Dyck words of length 2n that stay at
    # height >= floor before their last step (floor 1: the primitive
    # words).  A b step's weight depends only on the height and on the
    # step before it, so the words that reach the same (height, last
    # step) state after i steps share every suffix weight: their prefix
    # sums merge, and the walk keeps one sum per state.
    zero = BivariatePoly.zero()
    states = {(0, ""): BivariatePoly.constant(1)}
    for left in range(2 * n - 1, -1, -1):  # steps still to come after this one
        low = floor if left else 0
        nxt: dict[tuple[int, str], BivariatePoly] = {}
        for (height, last), acc in states.items():
            if height < left:
                key = (height + 1, "a")
                nxt[key] = nxt.get(key, zero) + acc
            if height - 1 >= low:
                key = (height - 1, "b")
                nxt[key] = nxt.get(key, zero) + acc * _b_weight(height - 1, last == "a", peak)
        states = nxt
    return states[(0, "b")]


def _path_family(name: str, size: str, n: int, family, peak: BivariatePoly | None):
    # (all, primitive) polynomials at size n of the family whose b steps
    # weigh _b_weight(..., peak); family is the public cached function,
    # so the smaller sizes come from its cache
    if n < 1:
        raise ValueError(f"need {size} >= 1")
    if n == 1:
        total = prim = _path_weight("ab", peak)  # the only path of length 2
    else:
        prim = BivariatePoly.y() * family(n - 1)[0].subs_y_plus(1)
        total = prim
        for p in range(1, n):
            total = total + family(p)[1] * family(n - p)[0]
    if n <= _PATH_SUM_LIMIT:
        if _path_sum(n, peak, 0) != total or _path_sum(n, peak, 1) != prim:
            raise InternalMismatch(f"{name}-family recurrence vs path sum at {size}={n}")
    return total, prim


@lru_cache(maxsize=None)
def L_family(n: int) -> tuple[BivariatePoly, BivariatePoly]:
    """(L_n, L'_n): the path polynomials over all / primitive Dyck words
    of length 2n, built by the coupled recurrences

        L'_n = y * L_{n-1}(x, y+1),   L'_1 = L_1 = x
        L_n  = L'_n + sum_{p<n} L'_p L_{n-p}

    and cross-checked against the sum of L_of_path over all / primitive
    Dyck words while n <= 10.
    L'_n(x, 1) = C_n(x); L_n(1, 1) = n!; L'_n is x/y-symmetric for n >= 2."""
    return _path_family("L", "n", n, L_family, BivariatePoly.x())


@lru_cache(maxsize=None)
def M_family(m: int) -> tuple[BivariatePoly, BivariatePoly]:
    """(M_m, M'_m): the map polynomials over all / primitive Dyck words
    of length 2m, built by

        M'_m = y * M_{m-1}(y+1),   M'_1 = M_1 = y
        M_m  = M'_m + sum_{p<m} M'_p M_{m-p}

    and cross-checked against the sum of M_of_path over all / primitive
    Dyck words while m <= 10.
    M_m(1) = (2m-1)!!; M'_m(1) = i_m."""
    return _path_family("M", "m", m, M_family, None)


@lru_cache(maxsize=None)
def joint_perm_poly(n: int) -> BivariatePoly:
    """Joint distribution of S_n by (cycles -> x, left-to-right maxima -> y).

    Composed from indecomposable blocks: a 1-point block weighs x*y (one
    cycle, one maximum) and a p-point block, p >= 2, weighs L'_p; the
    z^n coefficient of 1/(1 - sum_p block_p z^p) is the answer.  The
    result is symmetric in x and y.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    coeffs = [BivariatePoly.zero(), BivariatePoly.monomial(1, 1)]
    for p in range(2, n + 1):
        coeffs.append(L_family(p)[1])
    blocks = SeriesInZ(coeffs, n)
    return blocks.inverse_one_minus().coefficient(n)


def transitive_probability(n: int) -> Fraction:
    """Probability that a uniform pair of permutations of S_n acts
    transitively: c_{n+1} / (n * n!), exactly."""
    if n < 1:
        raise ValueError("need n >= 1")
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
