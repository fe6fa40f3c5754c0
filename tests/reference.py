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
sets.  ``reference_enum_dyck_paths`` and
``reference_enum_fpf_involutions`` are the enumerators as first
written, recursive generators with one frame per step or pair, which
pin the order of the library's one-loop forms.  ``reference_psi_inverse``
builds the canonical hypermap and reads the root interval off its
sigma's cycles, where the library reads both off one scan.
``reference_psi_prime`` and its inverse go through the full hypermap
bijection on 2m+1 darts, deleting and reinserting the dart
j = theta(2m+2), where the library uses the closed form.
``reference_phi`` is the involution as first written, block by block
through ``psi``, a checked swapped hypermap and
``reference_psi_inverse``, where the library runs one scan per block; and
``reference_fundamental_transform_inverse`` cuts the one-line form at
its maxima and rebuilds it through the checked ``from_cycles``.  They
live with the tests rather than in the package so that ``import
permaps`` does not load code only tests run.

The random generators at the end build permutations with a chosen
block structure, so tests at large n reach both indecomposable and
decomposable inputs: a uniform random permutation is almost always
indecomposable.  ``random_pairing`` draws the indecomposable
fixed-point-free involutions that ``psi_prime`` takes.
``random_planar_hypermaps`` and ``random_planar_maps`` decode a uniform
Dyck word (``random_dyck_word``) into a genus-0 hypermap or map, and
relabel it by a random relabeling that fixes the root.
"""

from __future__ import annotations

from itertools import accumulate, permutations
from random import Random
from typing import Iterator

from permaps.enumpoly import BivariatePoly, SeriesInZ
from permaps.dyck import DELTA, RV, LabeledDyckPath, format_labeled_path
from permaps.errors import (
    InternalMismatch,
    InvalidLabeling,
    InvalidPath,
    NotTransitive,
    PermapsError,
    PlacementOutOfRange,
)
from permaps.hypermap import (
    Hypermap,
    PermPair,
    _interval_cycles,
    canonical_rooted_form,
    psi,
)
from permaps.maps import RootedMap
from permaps.perm import (
    CycleForm,
    Permutation,
    blocks,
    concat_blocks,
    conjugate,
    cycles,
    from_cycles,
    inverse,
    is_indecomposable,
    lr_maxima,
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


def reference_psi_prime(theta: Permutation) -> RootedMap:
    """The map of an indecomposable pairing through the full hypermap
    bijection: split theta by ``psi`` into a hypermap on 2m+1 darts,
    whose alpha fixes j = theta(2m+2), then delete j from both
    permutations and renumber the darts above it."""
    h = psi(theta)
    j = theta(theta.n)
    sigma_images, alpha_images = [], []
    for i in range(1, h.n + 1):
        if i == j:
            continue
        s = h.sigma(i)
        if s == j:
            s = h.sigma(j)
        sigma_images.append(s - 1 if s > j else s)
        a = h.alpha(i)
        alpha_images.append(a - 1 if a > j else a)
    return RootedMap(Permutation(tuple(sigma_images)), Permutation(tuple(alpha_images)))


def _reference_interval_endpoints(sigma: Permutation) -> list[int]:
    """The left endpoints of sigma's cycles, when every cycle read from
    its minimum is a run of consecutive darts; ``InternalMismatch``
    otherwise."""
    endpoints = []
    for c in cycles(sigma, canonical=False).cycles:  # sorted by minimum
        if c != tuple(range(c[0], c[0] + len(c))):
            raise InternalMismatch("canonical form has a vertex that is not an interval")
        endpoints.append(c[0])
    return endpoints


def reference_psi_inverse(h: PermPair) -> Permutation:
    """``hypermap.psi_inverse`` as the composite: build the canonical
    hypermap, read the root interval's left endpoint i_k off its sigma,
    then put n+1 in at i_k of its alpha and move the displaced value to
    the end."""
    can, _ = canonical_rooted_form(h)
    ik = _reference_interval_endpoints(can.sigma)[-1]
    a = can.alpha.images
    return Permutation(a[: ik - 1] + (can.n + 1,) + a[ik:] + (a[ik - 1],))


def reference_psi_prime_inverse(m: Hypermap) -> Permutation:
    """The pairing of a rooted map through the full hypermap bijection:
    canonicalize, shift darts at or above the root vertex's left
    endpoint j up by one, reinsert j as a fixed point of alpha and as
    the new left end of the root vertex, and apply
    ``reference_psi_inverse``."""
    can, _ = canonical_rooted_form(m)
    endpoints = _reference_interval_endpoints(can.sigma)
    j = endpoints[-1]
    alpha_images = [0] * (can.n + 2)
    for i, v in enumerate(can.alpha.images, 1):
        alpha_images[i + 1 if i >= j else i] = v + 1 if v >= j else v
    alpha_images[j] = j
    sigma = _interval_cycles(endpoints, can.n + 1)
    return reference_psi_inverse(Hypermap(sigma, Permutation(tuple(alpha_images[1:]))))


def reference_phi(p: Permutation) -> Permutation:
    """``hypermap.phi_bijection`` as the composite: split each block of
    size >= 2 by ``psi``, swap the pair into a checked ``Hypermap`` and
    reassemble with ``reference_psi_inverse``; 1-point blocks stay fixed."""
    out = []
    for b in blocks(p):
        if b.n == 1:
            out.append(b)
        else:
            h = psi(b)
            out.append(reference_psi_inverse(Hypermap(h.alpha, h.sigma)))
    return concat_blocks(out)


def outcome(f, *args):
    """f(*args), or the class and message of the library error it raises."""
    try:
        return f(*args)
    except PermapsError as exc:
        return type(exc), str(exc)


def reference_fundamental_transform_inverse(p: Permutation) -> Permutation:
    """``perm.fundamental_transform_inverse`` through ``from_cycles``: the
    segments that start at the left-to-right maxima are the cycles."""
    maxima = list(lr_maxima(p)) + [p.n + 1]
    segs = [p.images[maxima[j] - 1 : maxima[j + 1] - 1] for j in range(len(maxima) - 1)]
    return from_cycles(segs, n=p.n)


def reference_enum_dyck_paths(n: int) -> Iterator[str]:
    """``dyck.enum_dyck_paths`` by depth-first extension, a before b."""
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


def all_perms(n: int) -> Iterator[Permutation]:
    """Every permutation of 1..n, images in lexicographic order."""
    for images in permutations(range(1, n + 1)):
        yield Permutation(images)


def reference_enum_fpf_involutions(n: int) -> Iterator[Permutation]:
    """``oracle.enum_fpf_involutions`` by pairing the smallest unpaired
    element with each later one in turn, then recursing on the rest."""
    def rec(avail: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not avail:
            yield ()
            return
        first = avail[0]
        for k in avail[1:]:
            rest = tuple(x for x in avail[1:] if x != k)
            for pairs in rec(rest):
                yield ((first, k),) + pairs

    for pairs in rec(tuple(range(1, n + 1))):
        img = [0] * (n + 1)
        for a, b in pairs:
            img[a], img[b] = b, a
        yield Permutation(tuple(img[1:]))


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


def root_fixing_relabel(rng: Random, n: int) -> Permutation:
    """A uniform relabeling of 1..n that fixes the root n."""
    images = list(range(1, n))
    rng.shuffle(images)
    return Permutation(tuple(images) + (n,))


def _relabeled(rng: Random, sigma: list[int], alpha: list[int]) -> Hypermap:
    phi = root_fixing_relabel(rng, len(sigma))
    return Hypermap(*(conjugate(Permutation(tuple(p)), phi) for p in (sigma, alpha)))


def random_dyck_word(rng: Random, n: int) -> str:
    """A uniform Dyck word of length 2n.  Of the cyclic shifts of n a's
    and n + 1 b's, exactly one starts a walk that stays at or above 0
    until its last step (the cycle lemma): the one that starts right
    after the first lowest point.  Drop its last b."""
    steps = ["a"] * n + ["b"] * (n + 1)
    rng.shuffle(steps)
    heights = list(accumulate(1 if step == "a" else -1 for step in steps))
    low = heights.index(min(heights)) + 1
    return "".join(steps[low:] + steps[:low - 1])


def _noncrossing_blocks(word: str) -> list[list[int]]:
    """The non-crossing partition of 1..n that a Dyck word of length 2n
    codes: a run of k a's before the i-th b opens a block of size k at
    i, and each b puts i into the innermost open block."""
    blocks: list[list[int]] = []
    open_blocks: list[list[int]] = []  # innermost last
    room: list[int] = []
    run = i = 0
    for step in word:
        if step == "a":
            run += 1
            continue
        i += 1
        if run:
            blocks.append([])
            open_blocks.append(blocks[-1])
            room.append(run)
            run = 0
        open_blocks[-1].append(i)
        room[-1] -= 1
        if not room[-1]:
            open_blocks.pop()
            room.pop()
    return blocks


def _long_cycle(n: int) -> list[int]:
    return [*range(2, n + 1), 1]


def random_planar_hypermaps(rng: Random, n: int) -> tuple[Hypermap, Hypermap]:
    """Two genus-0 hypermaps on n darts from one uniform non-crossing
    partition: alpha takes its blocks as decreasing cycles and sigma is
    (1 2 ... n), one vertex; then the swapped pair, one vertex per block.
    With faces the cycles of ``compose(sigma, alpha)``, increasing
    cycles would not give genus 0."""
    alpha = [0] * n
    for block in _noncrossing_blocks(random_dyck_word(rng, n)):
        for d, e in zip(block, [block[-1], *block]):
            alpha[d - 1] = e
    sigma = _long_cycle(n)
    return _relabeled(rng, sigma, alpha), _relabeled(rng, alpha, sigma)


def _swap_partners(rng: Random, alpha: list[int]) -> None:
    """Pair the darts of two pairs of alpha the other way round, in place."""
    a = rng.randrange(1, len(alpha) + 1)
    b = alpha[a - 1]
    c = rng.choice([e for e in range(1, len(alpha) + 1) if e not in (a, b)])
    d = alpha[c - 1]
    alpha[a - 1], alpha[c - 1], alpha[b - 1], alpha[d - 1] = c, a, d, b


def random_planar_maps(rng: Random, m: int, swaps: int = 0) -> tuple[Hypermap, Hypermap]:
    """Two maps on 2m darts from one uniform non-crossing pairing alpha
    (each a of a Dyck word paired with the b that matches it): sigma =
    (1 2 ... 2m), one vertex, after ``swaps`` partner swaps in alpha,
    each of which moves the genus by at most one from 0; and the plane
    tree sigma = (1 2 ... 2m) alpha, with m + 1 vertices."""
    alpha = [0] * (2 * m)
    opened = []
    for d, step in enumerate(random_dyck_word(rng, m), 1):
        if step == "a":
            opened.append(d)
        else:
            e = opened.pop()
            alpha[d - 1], alpha[e - 1] = e, d
    c = _long_cycle(2 * m)
    tree = _relabeled(rng, [c[e - 1] for e in alpha], alpha)
    for _ in range(swaps if m > 1 else 0):
        _swap_partners(rng, alpha)
    return _relabeled(rng, c, alpha), tree
