"""Straightforward reference forms of the slot bijection, the canonical
scan, the permutation primitives and the path polynomial families, for
tests to compare the fast library versions against.

The slot and scan forms rebuild the free-slot list, search for the pivot
and rescan the written word at every step, so they are quadratic or
worse.  The primitives evaluate ``p(i)`` point by point, rotate and sort
cycles, and join components with union-find.  The path families come
from their first-return recurrences on dict polynomials, and the joint
table from the inverse of a series in z, with O(n) polynomial products
per size.  The labeling checks keep their own height counters, one
loop per check, where the library reads every word through one step
walker.  ``reference_satisfies_lemma1`` is the syntactic test as first
written, through the inverse of alpha, its right-to-left minima and two
sets.  They live with the tests rather than in the package so that
``import permaps`` does not load code only tests run.

The random generators at the end build permutations with a chosen
block structure, so tests at large n reach both indecomposable and
decomposable inputs: a uniform random permutation is almost always
indecomposable.  ``random_pairing`` draws the indecomposable
fixed-point-free involutions that ``psi_prime`` takes.
"""

from __future__ import annotations

from itertools import accumulate
from random import Random

from permaps.enumpoly import BivariatePoly, SeriesInZ
from permaps.dyck import DELTA, RV, LabeledDyckPath, format_labeled_path
from permaps.errors import (
    InternalMismatch,
    InvalidLabeling,
    InvalidPath,
    NotTransitive,
    PlacementOutOfRange,
)
from permaps.hypermap import Hypermap, PermPair
from permaps.perm import (
    CycleForm,
    Permutation,
    conjugate,
    cycles,
    inverse,
    is_indecomposable,
    rl_minima,
)


class _ReferenceSlots:
    """Cycle blocks under construction as one list of slots per block.

    The pivot is the smallest placed element whose successor slot inside
    its own block is free; free slots are listed cyclically rightward
    from just after the pivot's slot (through later blocks in creation
    order, wrapping to earlier ones).
    """

    def __init__(self) -> None:
        self.blocks: list[list[int | None]] = []
        self.slot_of: dict[int, tuple[int, int]] = {}

    def open_block(self, elt: int, k: int) -> int:
        arr: list[int | None] = [None] * k
        arr[0] = elt
        self.blocks.append(arr)
        idx = len(self.blocks) - 1
        self.slot_of[elt] = (idx, 0)
        return idx

    def place(self, elt: int, block: int, slot: int) -> None:
        self.blocks[block][slot] = elt
        self.slot_of[elt] = (block, slot)

    def _pivot(self) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None
        best_elt = None
        for elt, (c, s) in self.slot_of.items():
            arr = self.blocks[c]
            if s + 1 < len(arr) and arr[s + 1] is None:
                if best_elt is None or elt < best_elt:
                    best_elt = elt
                    best = (c, s)
        return best

    def free_slots(self) -> list[tuple[int, int]]:
        """Free slots in pivot order; empty when every slot is taken."""
        start = self._pivot()
        if start is None:
            return []
        c0, s0 = start
        seq = [(c0, s) for s in range(s0 + 1, len(self.blocks[c0]))]
        for c in range(c0 + 1, len(self.blocks)):
            seq.extend((c, s) for s in range(len(self.blocks[c])))
        for c in range(c0):
            seq.extend((c, s) for s in range(len(self.blocks[c])))
        seq.extend((c0, s) for s in range(s0 + 1))
        return [(c, s) for c, s in seq if self.blocks[c][s] is None]

    def to_permutation(self) -> Permutation:
        n = sum(len(arr) for arr in self.blocks)
        img = [0] * (n + 1)
        for arr in self.blocks:
            for i, e in enumerate(arr):
                if e is None:
                    raise InternalMismatch("a block slot was never filled")
                img[e] = arr[(i + 1) % len(arr)]  # type: ignore[assignment]
        return Permutation(tuple(img[1:]))


def reference_delta(p: Permutation) -> LabeledDyckPath:
    """``dyck.delta`` computed by listing the free slots at every step."""
    orbit = cycles(p, canonical=False).cycles
    block_len: dict[int, int] = {}
    target: dict[int, tuple[int, int]] = {}
    for c in orbit:
        block_len[c[0]] = len(c)
        for t, e in enumerate(c):
            target[e] = (c[0], t)
    state = _ReferenceSlots()
    block_of_min: dict[int, int] = {}
    tokens: list[str] = []
    for i in range(1, p.n + 1):
        m, t = target[i]
        if t == 0:
            k = block_len[i]
            block_of_min[i] = state.open_block(i, k)
            tokens.extend(["a"] * k)
            tokens.append("b0")
        else:
            free = state.free_slots()
            rank = free.index((block_of_min[m], t)) + 1
            tokens.append(f"b{rank}")
            state.place(i, block_of_min[m], t)
    return LabeledDyckPath(tuple(tokens), DELTA)


def reference_delta_inverse(lp: LabeledDyckPath) -> Permutation:
    """``dyck.delta_inverse`` computed by listing the free slots at every step."""
    if lp.scheme != DELTA:
        raise InvalidLabeling(f"expected scheme {DELTA!r}, got {lp.scheme!r}")
    if not lp.word:
        raise InvalidLabeling("empty word encodes no permutation")
    if not reference_validate_labeling(lp):
        raise InvalidLabeling(f"not a valid delta labeling: {format_labeled_path(lp)}")
    state = _ReferenceSlots()
    element = 0
    run_a = 0
    for tok in lp.word:
        if tok == "a":
            run_a += 1
            continue
        element += 1
        lab = int(tok[1:])
        if lab == 0:
            state.open_block(element, run_a)
        else:
            free = state.free_slots()
            if lab > len(free):
                raise PlacementOutOfRange(
                    f"label {lab} with only {len(free)} free slots"
                )
            c, s = free[lab - 1]
            state.place(element, c, s)
        run_a = 0
    return state.to_permutation()


def _reference_is_dyck(word) -> bool:
    height = 0
    for step in word:
        if step == "a":
            height += 1
        elif step[0] == "b":
            height -= 1
            if height < 0:
                return False
        else:
            return False
    return height == 0


def reference_validate_labeling(lp: LabeledDyckPath) -> bool:
    """``dyck.validate_labeling``: the Dyck check, then the labels with
    their own counts of a's and b's."""
    if not _reference_is_dyck(lp.word):
        return False
    na = nb = 0
    prev = ""
    for tok in lp.word:
        if tok == "a":
            na += 1
        else:
            lab = int(tok[1:])
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


def reference_convert_label_scheme(lp: LabeledDyckPath) -> LabeledDyckPath:
    """``dyck.convert_label_scheme``: validate first, then rewrite."""
    if not reference_validate_labeling(lp):
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
                out.append(f"b{na - nb + 1 - int(tok[1:])}")
            nb += 1
        prev = tok[0]
    return LabeledDyckPath(tuple(out), RV if lp.scheme == DELTA else DELTA)


def reference_count_labelings(word: str, scheme: str = DELTA) -> int:
    """``dyck.count_labelings``: one factor per b step, the height in
    front for a non-peak, 1 for a peak."""
    if not _reference_is_dyck(word):
        raise InvalidPath(f"not a Dyck word: {word!r}")
    if scheme not in (DELTA, RV):
        raise ValueError(f"unknown labeling scheme: {scheme!r}")
    total = 1
    na = nb = 0
    prev = ""
    for ch in word:
        if ch == "a":
            na += 1
        else:
            if prev != "a":
                total *= na - nb
            nb += 1
        prev = ch
    return total


def reference_canonical_rooted_form(h: PermPair) -> tuple[Hypermap, Permutation]:
    """``hypermap.canonical_rooted_form`` computed by prepending each new
    vertex to the written word and rescanning it from the right."""
    n = h.n
    orbit = cycles(h.sigma, canonical=False).cycles
    cycle_of: dict[int, tuple[int, ...]] = {}
    for c in orbit:
        for e in c:
            cycle_of[e] = c
    root = cycle_of[n]
    cut = root.index(n) + 1
    written = list(root[cut:] + root[:cut])
    placed = set(written)
    examined = [False] * (n + 1)
    alpha_inv = inverse(h.alpha)
    while len(written) < n:
        for idx in range(len(written) - 1, -1, -1):
            e = written[idx]
            if not examined[e]:
                break
        else:
            raise NotTransitive("scan exhausted before covering every dart")
        examined[e] = True
        u = alpha_inv(e)
        if u not in placed:
            c = cycle_of[u]
            at = c.index(u)
            rot = c[at:] + c[:at]
            written[:0] = rot
            placed.update(rot)
    phi = Permutation(tuple(written))
    return Hypermap(conjugate(h.sigma, phi), conjugate(h.alpha, phi)), phi


def reference_satisfies_lemma1(pair: PermPair) -> bool:
    """``hypermap.satisfies_lemma1``: every cycle of sigma, read from its
    minimum, is a run of consecutive darts, and below the last run's
    start the values at the right-to-left minima of alpha^{-1} are the
    other runs' starts, compared as sets."""
    endpoints = []
    for c in cycles(pair.sigma, canonical=False).cycles:  # sorted by minimum
        if c != tuple(range(c[0], c[0] + len(c))):
            return False
        endpoints.append(c[0])
    ik = endpoints[-1]
    ainv = inverse(pair.alpha)
    minima_values = {ainv(i) for i in rl_minima(ainv)}
    return {v for v in minima_values if v < ik} == set(endpoints[:-1])


def reference_cycles(p: Permutation, canonical: bool = True) -> CycleForm:
    """``perm.cycles`` by following ``p(i)`` from each unseen minimum, then
    rotating every orbit to its maximum and sorting by first element."""
    seen = [False] * (p.n + 1)
    orbits: list[list[int]] = []
    for i in range(1, p.n + 1):
        if seen[i]:
            continue
        orb = [i]
        seen[i] = True
        j = p(i)
        while j != i:
            orb.append(j)
            seen[j] = True
            j = p(j)
        orbits.append(orb)
    if not canonical:
        return CycleForm(tuple(tuple(o) for o in orbits), False)
    rotated = []
    for o in orbits:
        m = o.index(max(o))
        rotated.append(tuple(o[m:] + o[:m]))
    rotated.sort(key=lambda c: c[0])
    return CycleForm(tuple(rotated), True)


def reference_conjugate(p: Permutation, phi: Permutation) -> Permutation:
    """``perm.conjugate`` point by point, through the checked constructor."""
    inv = [0] * (p.n + 1)
    for i, v in enumerate(phi.images, start=1):
        inv[v] = i
    return Permutation(tuple(inv[p(phi(i))] for i in range(1, p.n + 1)))


def reference_is_transitive(pair: PermPair) -> bool:
    """``hypermap.is_transitive`` by union-find over both images of every dart."""
    n = pair.n
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for b in range(1, n + 1):
        for c in (pair.sigma(b), pair.alpha(b)):
            rb, rc = find(b), find(c)
            if rb != rc:
                parent[rb] = rc
                components -= 1
    return components == 1


def reference_path_families(N: int, peak: BivariatePoly | None):
    """([P_0..P_N], [P'_0..P'_N]) from the coupled first-return recurrences

        P'_1 = peak (y when None),   P'_n = y * P_{n-1}(x, y+1)
        P_n  = sum_{p=1}^{n} P'_p P_{n-p},   P_0 = 1

    with peak x for the L family and None for the M family."""
    y = BivariatePoly.y()
    total, prim = [BivariatePoly.constant(1)], [BivariatePoly.zero()]
    for n in range(1, N + 1):
        prim.append((y if peak is None else peak) if n == 1 else y * total[n - 1].subs_y_plus(1))
        total.append(sum((prim[p] * total[n - p] for p in range(1, n + 1)), BivariatePoly.zero()))
    return total, prim


def reference_joint(l_prime: list[BivariatePoly]) -> SeriesInZ:
    """1 / (1 - sum_p block_p z^p) through z^N, given [L'_0..L'_N], with
    block_1 = x*y and block_p = L'_p for p >= 2; its z^n coefficient is
    joint_n."""
    blocks = [BivariatePoly.zero(), BivariatePoly.monomial(1, 1), *l_prime[2:]]
    return SeriesInZ(blocks, len(l_prime) - 1).inverse_one_minus()


def random_perm(rng: Random, n: int) -> Permutation:
    """Anything from the identity (n blocks) to a near-uniform shuffle
    (a few long cycles), depending on how many swaps are drawn."""
    images = list(range(1, n + 1))
    for _ in range(rng.randint(0, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


def random_indecomposable(rng: Random, n: int) -> Permutation:
    """A random indecomposable permutation of 1..n.

    Starting from ``random_perm``, at each end e < n of a block (a
    prefix whose maximum is its length), the images at e and e + 1
    trade places.  That brings a value above e into the prefix of length
    e and leaves every other prefix's set of values as it was, so no
    proper prefix is stable afterwards."""
    images = list(random_perm(rng, n).images)
    ends = [e for e, top in enumerate(accumulate(images, max), 1) if top == e and e < n]
    for e in ends:
        images[e - 1], images[e] = images[e], images[e - 1]
    return Permutation(tuple(images))


def random_blocks(rng: Random, sizes: list[int]) -> Permutation:
    """The concatenation of random indecomposable blocks of these sizes."""
    images: list[int] = []
    for size in sizes:
        offset = len(images)
        images += [v + offset for v in random_indecomposable(rng, size).images]
    return Permutation(tuple(images))


def random_block_sizes(rng: Random, n: int, least: int = 1) -> list[int]:
    """A random composition of n into at least ``least`` (and at most
    ``least`` + 8) parts."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(least - 1, min(n - 1, least + 7))))
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


def random_decomposable(rng: Random, n: int) -> Permutation:
    """A random permutation of 1..n (n >= 2) with at least two blocks."""
    return random_blocks(rng, random_block_sizes(rng, n, least=2))


def random_pairing(rng: Random, n: int) -> Permutation:
    """A random indecomposable fixed-point-free involution of 1..n (n even
    and at least 2): uniform pairings, drawn again until one is
    indecomposable, as all but a vanishing share are once n grows."""
    points = list(range(1, n + 1))
    while True:
        rng.shuffle(points)
        images = [0] * n
        for a, b in zip(points[::2], points[1::2]):
            images[a - 1], images[b - 1] = b, a
        p = Permutation(tuple(images))
        if is_indecomposable(p):
            return p
