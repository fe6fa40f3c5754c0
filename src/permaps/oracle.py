"""Exhaustive ground truth at small sizes.

Everything the other modules claim is re-derived here by direct
enumeration and statistic counting, then compared: permutations with
their joint (cycles, left-to-right maxima, right-to-left minima,
indecomposability) distribution, fixed-point-free involutions,
transitive pairs, and labeled-path censuses.  ``verify_suite`` packages
the comparisons into a deterministic pass/fail report.  Each check is a
generator that yields its counterexamples in enumeration order, and the
suite's one runner takes the first, so a failure's witness is the
lexicographically smallest counterexample and nothing after it runs;
``fault`` deliberately breaks one code path so the suite can demonstrate
that it catches regressions.  Forked processes share the checks, one per
CPU; the caller runs what none reported, so any number gives one outcome.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import math
import os
import threading
from collections import Counter
from typing import Callable, Iterator

from .dyck import (
    DELTA,
    RV,
    convert_label_scheme,
    count_labelings,
    delta,
    delta_inverse,
    enum_dyck_paths,
    enum_labelings,
    is_primitive,
    validate_labeling,
)
from .enumpoly import (
    BivariatePoly,
    L_family,
    M_family,
    arques_beraud_check,
    c_count,
    c_count_by_cycles,
    c_poly,
    double_factorial_odd,
    i_count,
    joint_perm_poly,
    transitive_probability,
)
from .errors import LimitExceeded
from .hypermap import (
    Hypermap,
    PermPair,
    canonical_rooted_form,
    is_transitive,
    phi_bijection,
    psi,
    psi_inverse,
    satisfies_lemma1,
)
from .maps import is_fpf_involution, psi_prime, psi_prime_inverse
from .perm import (
    Permutation,
    _cycle_count,
    _perm,
    _Record,
    conjugate,
    format_permutation,
    identity,
    is_indecomposable,
    lr_maxima,
    rl_minima,
    fundamental_transform,
    fundamental_transform_inverse,
)

__all__ = [
    "enum_permutations",
    "enum_fpf_involutions",
    "DistributionTable",
    "joint_distribution",
    "count_transitive_pairs",
    "hypermap_census",
    "CheckResult",
    "VerifyReport",
    "FAULTS",
    "verify_suite",
]


def enum_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of {1..n} in lexicographic one-line order."""
    if n < 1:
        raise ValueError("need n >= 1")
    for images in itertools.permutations(range(1, n + 1)):
        yield _perm(images)


def enum_fpf_involutions(n: int) -> Iterator[Permutation]:
    """All (n-1)!! fixed-point-free involutions of {1..n}, n even, ordered
    by the partner chosen for the smallest unpaired element: a counter of
    partner ranks in mixed radix n-1, n-3, ..., 1, stepped in one loop."""
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
    ranks = [0] * (n // 2)
    while True:
        free = list(range(n, 0, -1))  # unpaired elements, smallest last
        img = [0] * (n + 1)
        for r in ranks:  # r pairs the smallest with the (r+1)-th of the rest
            a, b = free.pop(), free.pop(~r)
            img[a], img[b] = b, a
        yield _perm(tuple(img[1:]))
        for i in reversed(range(len(ranks))):
            if ranks[i] < n - 2 - 2 * i:
                ranks[i] += 1
                break
            ranks[i] = 0
        else:
            return


class DistributionTable(_Record, frozen=False):
    """Joint statistic counts for all of S_n.

    ``entries`` maps (cycles, lr_maxima, rl_minima, indecomposable) to
    the number of permutations carrying those statistics; the counts
    total n!.
    """

    __match_args__ = ("n", "entries")
    FIELDS = ("cycles", "lr_maxima", "rl_minima", "indecomposable")

    def __init__(self, n: int, entries: dict[tuple[int, int, int, bool], int] | None = None):
        self.n, self.entries = n, {} if entries is None else entries

    def total(self) -> int:
        return sum(self.entries.values())

    def project(self, fields: tuple[str, ...], indecomposable_only: bool = False) -> dict:
        """Marginal counts over the named statistics (scalar keys when a
        single field is named, tuples otherwise)."""
        idx = [self.FIELDS.index(f) for f in fields]
        out: dict = {}
        for key, cnt in self.entries.items():
            if indecomposable_only and not key[3]:
                continue
            sub = tuple(key[i] for i in idx)
            if len(sub) == 1:
                sub = sub[0]
            out[sub] = out.get(sub, 0) + cnt
        return out


def joint_distribution(n: int, limit: int = 8) -> DistributionTable:
    """Exact statistic table by direct evaluation over all of S_n."""
    if n > limit:
        raise LimitExceeded(f"n = {n} exceeds the limit {limit}")
    table = DistributionTable(n)
    for p in enum_permutations(n):
        key = (
            _cycle_count(p.images),
            len(lr_maxima(p)),
            len(rl_minima(p)),
            is_indecomposable(p),
        )
        table.entries[key] = table.entries.get(key, 0) + 1
    return table


def _transitive_pairs(n: int) -> Iterator[PermPair]:
    # the n!^2 pair scan behind every pair count, sigma-major
    perms = list(enum_permutations(n))
    for sigma in perms:
        for alpha in perms:
            pair = PermPair(sigma, alpha)
            if is_transitive(pair):
                yield pair


def count_transitive_pairs(n: int, limit: int = 5) -> int:
    """Count transitive pairs among all n!^2 pairs by direct check."""
    if n > limit:
        raise LimitExceeded(f"n = {n} exceeds the limit {limit}")
    if n < 1:
        raise ValueError("need n >= 1")
    return sum(1 for _ in _transitive_pairs(n))


def _census(n: int, canon: Callable) -> Iterator[tuple[PermPair, Hypermap, Permutation]]:
    # every transitive pair on n darts with its canonical form and relabeling
    for pair in _transitive_pairs(n):
        yield pair, *canon(pair)


def hypermap_census(n: int, limit: int = 5) -> tuple[int, int]:
    """(labeled, rooted) hypermap counts on n darts by brute force:
    transitive pairs, and distinct canonical forms among them."""
    if n > limit:
        raise LimitExceeded(f"n = {n} exceeds the limit {limit}")
    if n < 1:
        raise ValueError("need n >= 1")
    forms = [(c.sigma.images, c.alpha.images) for _, c, _ in _census(n, canonical_rooted_form)]
    return len(forms), len(set(forms))


# --- verification suite ------------------------------------------------------


class CheckResult(_Record, frozen=False):
    __match_args__ = ("check", "status", "witness")

    def __init__(self, check: str, status: str, witness: dict | None = None) -> None:
        self.check, self.status, self.witness = check, status, witness  # status: "pass" | "fail"

    def to_json_obj(self) -> dict:
        obj: dict = {"check": self.check, "status": self.status}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


class VerifyReport(_Record, frozen=False):
    __match_args__ = ("results",)

    def __init__(self, results: list[CheckResult]) -> None:
        self.results = results

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_json_obj(self) -> list[dict]:
        return [r.to_json_obj() for r in self.results]

    def to_text(self) -> str:
        lines = [f"PASS {r.check}" if r.status == "pass" else f"FAIL {r.check} witness={r.witness}"
                 for r in self.results]
        tally = sum(1 for r in self.results if r.status != "pass")
        lines.append("all checks passed" if tally == 0 else f"{tally} check(s) failed")
        return "\n".join(lines)


FAULTS = ("skip-canonicalization",)


def _witness(key: str, size: int, x: Permutation, reason: str) -> dict:
    # the witness naming one object: its size, its one-line form, the failure
    return {key: size, "perm" if key == "n" else "theta": format_permutation(x), "reason": reason}


def _check_indecomposable_count(ctx: dict) -> Iterator[dict]:
    for n in range(1, ctx["max_n"] + 1):
        exhaustive = ctx["tables"](n).project(("indecomposable",)).get(True, 0)
        if exhaustive != c_count(n):
            yield {"n": n, "exhaustive": exhaustive, "formula": c_count(n)}


def _check_stirling_triangle(ctx: dict) -> Iterator[dict]:
    for n in range(2, ctx["max_n"] + 1):
        table = ctx["tables"](n)
        by_cycles = table.project(("cycles",), indecomposable_only=True)
        by_maxima = table.project(("lr_maxima",), indecomposable_only=True)
        for k in range(1, n):
            formula = c_count_by_cycles(n, k)
            for key, counts in (("exhaustive", by_cycles), ("exhaustive_by_maxima", by_maxima)):
                if counts.get(k, 0) != formula:
                    yield {"n": n, "k": k, key: counts.get(k, 0), "formula": formula}
        if c_poly(n).evaluate(1, 1) != c_count(n):
            yield {"n": n, "poly_at_1": c_poly(n).evaluate(1, 1), "count": c_count(n)}


def _check_fundamental_transform(ctx: dict) -> Iterator[dict]:
    for n in range(1, min(ctx["max_n"], 7) + 1):
        for p in enum_permutations(n):
            t = fundamental_transform(p)
            if fundamental_transform_inverse(t) != p:
                yield _witness("n", n, p, "round trip")
            if _cycle_count(p.images) != len(lr_maxima(t)):
                yield _witness("n", n, p, "statistic")
            if is_indecomposable(p) != is_indecomposable(t):
                yield _witness("n", n, p, "block structure")


def _check_interval_split(ctx: dict) -> Iterator[dict]:
    for size in range(2, ctx["max_n"] + 2):
        count = 0
        for theta in enum_permutations(size):
            if not is_indecomposable(theta):
                continue
            count += 1
            h = psi(theta)
            if not satisfies_lemma1(h):
                yield _witness("size", size, theta, "not canonical")
            if _cycle_count(h.alpha.images) != _cycle_count(theta.images):
                yield _witness("size", size, theta, "edge count")
            if _cycle_count(h.sigma.images) != len(lr_maxima(theta)):
                yield _witness("size", size, theta, "vertex count")
            if psi_inverse(h) != theta:
                yield _witness("size", size, theta, "round trip")
        if count != c_count(size):
            yield {"size": size, "images": count, "expected": c_count(size)}


def _check_statistic_swap(ctx: dict) -> Iterator[dict]:
    for n in range(1, min(ctx["max_n"], 7) + 1):
        for p in enum_permutations(n):
            q = phi_bijection(p)
            if phi_bijection(q) != p:
                yield _witness("n", n, p, "not involutive")
            counts = _cycle_count(p.images), _cycle_count(q.images)
            if counts != (len(lr_maxima(q)), len(lr_maxima(p))):
                yield _witness("n", n, p, "statistic")


def _check_hypermap_census(ctx: dict) -> Iterator[dict]:
    canon = ctx["canon"]
    for n in range(1, ctx["pair_max_n"] + 1):
        relabel = Permutation((2, 1) + tuple(range(3, n + 1))) if n >= 3 else None
        labeled = 0
        forms: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for pair, can, phi in _census(n, canon):
            labeled += 1
            if phi(n) != n:
                yield {"n": n, "sigma": format_permutation(pair.sigma),
                       "alpha": format_permutation(pair.alpha),
                       "reason": "relabeling moves the root"}
            if relabel is not None:
                can2, _ = canon(PermPair(conjugate(pair.sigma, relabel),
                                         conjugate(pair.alpha, relabel)))
                if (can.sigma, can.alpha) != (can2.sigma, can2.alpha):
                    yield {"n": n, "sigma": format_permutation(pair.sigma),
                           "alpha": format_permutation(pair.alpha),
                           "relabel": format_permutation(relabel),
                           "reason": "canonical form depends on the labeling"}
            forms.add((can.sigma.images, can.alpha.images))
        ctx["labeled_pairs"][n] = labeled
        expected_labeled = math.factorial(n - 1) * c_count(n + 1)
        if labeled != expected_labeled:
            yield {"n": n, "labeled": labeled, "expected": expected_labeled}
        expected_rooted = c_count(n + 1)
        if len(forms) != expected_rooted:
            yield {"n": n, "rooted": len(forms), "expected": expected_rooted}


def _check_transitive_probability(ctx: dict) -> Iterator[dict]:
    from fractions import Fraction  # imported here: only this check's unit needs it

    for n in range(1, ctx["pair_max_n"] + 1):
        # the census's count, unless it stopped before finishing size n
        pairs = ctx["labeled_pairs"].get(n)
        if pairs is None:
            pairs = count_transitive_pairs(n)
        brute = Fraction(pairs, math.factorial(n) ** 2)
        formula = transitive_probability(n)
        if brute != formula:
            yield {"n": n, "brute": str(brute), "formula": str(formula)}


def _check_path_round_trip(ctx: dict) -> Iterator[dict]:
    for n in range(1, ctx["max_n"] + 1):
        for p in enum_permutations(n):
            w = delta(p)
            if len(w.word) != 2 * n or not validate_labeling(w):
                yield _witness("n", n, p, "invalid word")
            if delta_inverse(w) != p:
                yield _witness("n", n, p, "round trip")
            b0 = sum(1 for t in w.word if t == "b0")
            b1 = sum(1 for t in w.word if t == "b1")
            fixed = sum(1 for i in range(1, n + 1) if p(i) == i)
            k = len(lr_maxima(p))
            if b0 != _cycle_count(p.images):
                yield _witness("n", n, p, "cycle count")
            if is_primitive(w.underlying()) != is_indecomposable(p):
                yield _witness("n", n, p, "primitivity")
            if not b1 <= k <= b1 + fixed:
                yield _witness("n", n, p, "maxima bound")
            if n >= 2 and is_indecomposable(p) and b1 != k:
                yield _witness("n", n, p, "maxima count")


def _check_labeling_counts(ctx: dict) -> Iterator[dict]:
    for n in range(0, min(ctx["max_n"], 6) + 1):
        total = 0
        for word in enum_dyck_paths(n):
            expected = count_labelings(word, DELTA)
            for scheme in (DELTA, RV):
                got = 0
                for lp in enum_labelings(word, scheme):
                    got += 1
                    swapped = convert_label_scheme(lp)
                    if (swapped.underlying() != word or not validate_labeling(swapped)
                            or convert_label_scheme(swapped) != lp):
                        yield {"word": word, "labeling": " ".join(lp.word)}
                if got != expected:
                    yield {"word": word, "scheme": scheme, "count": got, "expected": expected}
            total += expected
        if total != math.factorial(n):
            yield {"n": n, "total": total, "expected": math.factorial(n)}


def _coefficients(n: int, poly: BivariatePoly, joint: dict) -> Iterator[dict]:
    # each (cycles, maxima) coefficient of poly against the exhaustive
    # count, over the monomials of either side
    for p_cyc, q_max in sorted(joint.keys() | {(px, py) for px, py, _ in poly.terms()}):
        got, cnt = poly.coefficient(p_cyc, q_max), joint.get((p_cyc, q_max), 0)
        if got != cnt:
            yield {"n": n, "cycles": p_cyc, "maxima": q_max, "poly": got, "exhaustive": cnt}


def _check_path_polynomials(ctx: dict) -> Iterator[dict]:
    # L_family itself checks L'_1 = L_1 = x, L_n(1, 1) = n! and L'_n's symmetry
    for n in range(2, ctx["max_n"] + 1):
        Lp = L_family(n)[1]
        joint = ctx["tables"](n).project(("cycles", "lr_maxima"), indecomposable_only=True)
        yield from _coefficients(n, Lp, joint)


def _check_joint_polynomial(ctx: dict) -> Iterator[dict]:
    for n in range(1, ctx["max_n"] + 1):
        table = ctx["tables"](n)
        joint = table.project(("cycles", "lr_maxima"))
        yield from _coefficients(n, joint_perm_poly(n), joint)
        if {(q, p): c for (p, q), c in joint.items()} != joint:
            yield {"n": n, "reason": "table not symmetric"}
        if table.project(("lr_maxima", "cycles")) != table.project(("lr_maxima", "rl_minima")):
            yield {"n": n, "reason": "cycles vs right-to-left minima marginal"}


def _check_map_counts(ctx: dict) -> Iterator[dict]:
    for size in range(2, ctx["fpf_max_size"] + 1, 2):
        m = size // 2
        total = indec = 0
        for t in enum_fpf_involutions(size):
            total += 1
            if is_indecomposable(t):
                indec += 1
        if total != double_factorial_odd(m):
            yield {"size": size, "total": total, "expected": double_factorial_odd(m)}
        if indec != i_count(m):
            yield {"size": size, "indecomposable": indec, "formula": i_count(m)}


def _check_map_round_trip(ctx: dict) -> Iterator[dict]:
    for size in range(4, ctx["fpf_max_size"] + 1, 2):
        m_edges = (size - 2) // 2
        census: Counter[int] = Counter()
        for t in enum_fpf_involutions(size):
            if not is_indecomposable(t):
                continue
            mp = psi_prime(t)
            if not is_fpf_involution(mp.alpha):
                yield _witness("size", size, t, "not a pairing")
            vertices = _cycle_count(mp.sigma.images)
            if vertices != len(lr_maxima(t)):
                yield _witness("size", size, t, "vertex count")
            if psi_prime_inverse(mp) != t:
                yield _witness("size", size, t, "round trip")
            census[vertices] += 1
        Mp = M_family(m_edges + 1)[1]
        expected = {v: Mp.coefficient(0, v) for v in range(1, m_edges + 2)
                    if Mp.coefficient(0, v)}
        if dict(census) != expected:
            yield {"size": size, "census": dict(census), "expected": expected}


def _check_map_functional_equation(ctx: dict) -> Iterator[dict]:
    order = 6
    residual = arques_beraud_check(order)
    for m in range(order + 1):
        if not residual.coefficient(m).is_zero:
            yield {"order": m, "coefficient": residual.coefficient(m).to_string()}


# (name, check, unit), in report order and each unit's run order; a unit
# is the work a process claims at once, 0 the heaviest at the defaults, and
# checks that share ctx state (census pair counts, tables cache) share one
_CHECKS: tuple[tuple[str, Callable[[dict], Iterator[dict]], int], ...] = (
    ("indecomposable-count", _check_indecomposable_count, 6),
    ("stirling-triangle", _check_stirling_triangle, 6),
    ("fundamental-transform", _check_fundamental_transform, 4),
    ("interval-split-round-trip", _check_interval_split, 0),
    ("statistic-swap-involution", _check_statistic_swap, 3),
    ("hypermap-census", _check_hypermap_census, 2),
    ("transitive-probability", _check_transitive_probability, 2),
    ("path-round-trip", _check_path_round_trip, 1),
    ("labeling-counts", _check_labeling_counts, 5),
    ("path-polynomials", _check_path_polynomials, 6),
    ("joint-polynomial", _check_joint_polynomial, 6),
    ("map-counts", _check_map_counts, 8),
    ("map-round-trip", _check_map_round_trip, 7),
    ("map-functional-equation", _check_map_functional_equation, 9),
)

_UNITS = tuple(tuple(i for i, (*_, unit) in enumerate(_CHECKS) if unit == u)
               for u in range(max(unit for *_, unit in _CHECKS) + 1))


def _workers() -> int:
    # one process per CPU this one may use; this one alone where it cannot
    # fork, or where another thread might hold a table lock across the fork
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(len(_UNITS), cpus)


def _run_units(ctx: dict) -> dict[int, dict | None]:
    # each check's first witness, by index: _workers() processes, this one
    # too, claim units off one pipe, where a one-byte read is atomic; a worker
    # that raises or dies reports nothing, and this one runs what none reported
    todo, fill = os.pipe()
    os.write(fill, bytes(range(len(_UNITS))))
    os.close(fill)
    workers = _workers()
    pin = workers > 1 and hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pin else []

    def run(unit):
        return {i: next(_CHECKS[i][1](ctx), None) for i in _UNITS[unit]}

    def claim(k):  # worker k, on a CPU of its own: Linux can leave a child on its parent's CPU
        if cpus:
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        found = {}
        while unit := os.read(todo, 1):
            found.update(run(unit[0]))
        return found

    reports = {}  # child pid -> the read end of its report pipe
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:  # the child: one report, then an exit that flushes no stdio
                try:
                    os.write(w, marshal.dumps(claim(k)))
                finally:
                    os._exit(0)
            os.close(w)
            reports[pid] = open(r, "rb")
        found = claim(0)
        for pipe in reports.values():
            if report := pipe.read():
                found.update(marshal.loads(report))
        for unit in [u for u, checks in enumerate(_UNITS) if checks[0] not in found]:
            found.update(run(unit))
        return found
    finally:
        os.close(todo)
        for pid, pipe in reports.items():  # a child that has reported is only exiting
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        if cpus:
            os.sched_setaffinity(0, cpus)


def verify_suite(
    max_n: int = 7,
    pair_max_n: int = 5,
    fpf_max_size: int = 10,
    fault: str | None = None,
) -> VerifyReport:
    """Run every cross-check at the given exhaustive sizes.

    ``max_n`` bounds the S_n sweeps (permutation statistics, bijections,
    polynomial comparisons; the interval-splitting bijection is swept
    one size higher).  ``pair_max_n`` bounds the n!^2 pair scans and
    ``fpf_max_size`` the pairing sweeps.  ``fault`` (one of ``FAULTS``)
    deliberately breaks a code path under test so the report shows a
    counterexample; failures are data in the report, never exceptions.
    """
    if not 1 <= max_n <= 8:
        raise ValueError("need 1 <= max_n <= 8")
    if not 1 <= pair_max_n <= 5:
        raise ValueError("need 1 <= pair_max_n <= 5")
    if not 2 <= fpf_max_size <= 12 or fpf_max_size % 2:
        raise ValueError("need even fpf_max_size between 2 and 12")
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")

    canon = canonical_rooted_form
    if fault == "skip-canonicalization":
        def canon(pair):  # noqa: F811 - deliberate fault stand-in
            return Hypermap(pair.sigma, pair.alpha), identity(pair.n)

    ctx = {
        "max_n": max_n,
        "pair_max_n": pair_max_n,
        "fpf_max_size": fpf_max_size,
        "canon": canon,
        "tables": functools.cache(joint_distribution),
        "labeled_pairs": {},
    }
    found = _run_units(ctx)
    return VerifyReport([CheckResult(name, "pass" if found[i] is None else "fail", found[i])
                         for i, (name, *_) in enumerate(_CHECKS)])
