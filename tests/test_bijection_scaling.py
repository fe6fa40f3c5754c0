"""The slot bijection, the canonical scan, the image-indexed
permutation primitives, the fundamental transform and the hypermap and
map bijections at sizes far beyond the exhaustive sweeps: property
tests against the reference forms in ``reference.py``, and a round trip
at n = 10^5."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permaps.dyck import delta, delta_inverse
from permaps.errors import Decomposable, NotFpf, NotTransitive
from permaps.hypermap import (
    Hypermap,
    PermPair,
    canonical_rooted_form,
    is_transitive,
    phi_bijection,
    psi,
    psi_inverse,
    satisfies_lemma1,
)
from permaps.maps import is_fpf_involution, psi_prime, psi_prime_inverse
from permaps.perm import (
    Permutation,
    _cycle_count,
    blocks,
    conjugate,
    cycles,
    fundamental_transform,
    fundamental_transform_inverse,
    lr_maxima,
)
from reference import (
    random_block_sizes,
    random_blocks,
    random_decomposable,
    random_indecomposable,
    random_pairing,
    random_perm,
    reference_canonical_rooted_form,
    reference_conjugate,
    reference_cycles,
    reference_delta,
    reference_delta_inverse,
    reference_fundamental_transform_inverse,
    reference_is_transitive,
    reference_phi,
    reference_psi_inverse,
    reference_psi_prime,
    reference_psi_prime_inverse,
    reference_satisfies_lemma1,
)

# derandomized, so every run draws the same examples
bounded = settings(max_examples=12, deadline=None, derandomize=True, database=None)
# a seeded generator, not hypothesis' own randoms, which draw every swap
# from hypothesis' bounded example buffer
seeds = st.integers(0, 2**32).map(random.Random)


def test_delta_matches_reference_exhaustive():
    for n in range(1, 8):
        for images in itertools.permutations(range(1, n + 1)):
            p = Permutation(images)
            w = delta(p)
            assert w == reference_delta(p)
            assert delta_inverse(w) == reference_delta_inverse(w) == p


@bounded
@given(st.integers(1, 2000), seeds)
def test_delta_matches_reference(n, rng):
    p = random_perm(rng, n)
    w = delta(p)
    assert w == reference_delta(p)
    assert delta_inverse(w) == reference_delta_inverse(w) == p


# pairings and their fundamental transforms are the benchmark's other
# shapes: many 2-cycles, or many left-to-right maxima, move the pivot
# queue differently than uniform inputs with their few long cycles do;
# the reference lists every free slot at every step, which is slowest on
# this shape, hence fewer examples
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 1000), seeds)
def test_delta_matches_reference_on_pairings(m, rng):
    q = random_pairing(rng, 2 * m)
    for p in (q, fundamental_transform(q)):
        w = delta(p)
        assert w == reference_delta(p)
        assert delta_inverse(w) == reference_delta_inverse(w) == p


def run_edge_inputs(rng, n):
    """A uniform shuffle, a pairing (with n fixed when n is odd) and that
    pairing's fundamental transform, each of size n."""
    images = list(range(1, n + 1))
    rng.shuffle(images)
    q = random_pairing(rng, n - n % 2)
    if n % 2:
        q = Permutation(q.images + (n,))
    return Permutation(tuple(images)), q, fundamental_transform(q)


# delta keeps its free slots in runs of 1024 slots each: 1023 and 1024
# end inside or at the end of the first run, 1025 and 2049 spill one slot
# into a second or a third
@pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
def test_delta_matches_reference_at_run_edges(n):
    for p in run_edge_inputs(random.Random(n), n):
        w = delta(p)
        assert w == reference_delta(p)
        assert delta_inverse(w) == p


def test_delta_round_trip_over_ten_runs():
    # ten runs, the last of five slots, under a tree padded to sixteen
    n = 9 * 1024 + 5
    for p in run_edge_inputs(random.Random(n), n):
        assert delta_inverse(delta(p)) == p


def root_fixing_relabel(rng, n):
    images = list(range(1, n))
    rng.shuffle(images)
    return Permutation(tuple(images) + (n,))


def random_hypermap(rng, n):
    """A random pair made transitive: swapping alpha's images at darts of
    two different components joins them."""
    sigma, alpha = random_perm(rng, n), list(random_perm(rng, n).images)
    component = [0] * (n + 1)
    roots = []
    for start in range(1, n + 1):
        if component[start]:
            continue
        roots.append(start)
        component[start] = start
        stack = [start]
        while stack:
            e = stack.pop()
            for f in (sigma(e), alpha[e - 1]):
                if not component[f]:
                    component[f] = start
                    stack.append(f)
    for r in roots[1:]:
        alpha[0], alpha[r - 1] = alpha[r - 1], alpha[0]
    return PermPair(sigma, Permutation(tuple(alpha)))


def canonical_or_error(canon, h):
    try:
        can, phi = canon(h)
    except NotTransitive:
        return None
    return can.sigma.images, can.alpha.images, phi.images


def test_canonical_matches_reference_exhaustive():
    for n in range(1, 6):
        perms = [Permutation(im) for im in itertools.permutations(range(1, n + 1))]
        for s, a in itertools.product(perms, repeat=2):
            h = PermPair(s, a)
            assert canonical_or_error(canonical_rooted_form, h) == canonical_or_error(
                reference_canonical_rooted_form, h
            )


@bounded
@given(st.integers(1, 2000), seeds)
def test_canonical_matches_reference(n, rng):
    h = random_hypermap(rng, n)
    assert canonical_or_error(canonical_rooted_form, h) == canonical_or_error(
        reference_canonical_rooted_form, h
    )


@bounded
@given(st.integers(1, 2000), seeds)
def test_canonical_invariant_under_root_fixing_relabeling(n, rng):
    h = random_hypermap(rng, n)
    assert is_transitive(h)
    phi = root_fixing_relabel(rng, n)
    moved = PermPair(conjugate(h.sigma, phi), conjugate(h.alpha, phi))
    assert canonical_rooted_form(moved)[0] == canonical_rooted_form(h)[0]


@settings(max_examples=1, deadline=None, derandomize=True, database=None)
@given(seeds)
def test_delta_round_trip_at_100000(rng):
    images = list(range(1, 100_001))
    rng.shuffle(images)
    p = Permutation(tuple(images))
    assert delta_inverse(delta(p)) == p


def with_isolated_dart(rng, n):
    """A random transitive pair on n - 1 darts plus one dart that both
    permutations fix: the root half the time, else a random label."""
    h = random_hypermap(rng, n - 1)
    k = rng.choice((n, rng.randint(1, n)))

    def lift(p):
        shift = [0] + [d if d < k else d + 1 for d in range(1, n)]
        images = [shift[v] for v in p.images]
        images.insert(k - 1, k)
        return Permutation(tuple(images))

    return PermPair(lift(h.sigma), lift(h.alpha))


def test_primitives_match_reference_exhaustive():
    for n in range(1, 7):
        perms = [Permutation(im) for im in itertools.permutations(range(1, n + 1))]
        for p in perms:
            for canonical in (True, False):
                assert cycles(p, canonical) == reference_cycles(p, canonical)
            assert _cycle_count(p.images) == len(reference_cycles(p).cycles)
            assert conjugate(p, perms[-1]) == reference_conjugate(p, perms[-1])
        if n <= 4:
            for s, a in itertools.product(perms, repeat=2):
                h = PermPair(s, a)
                assert is_transitive(h) == reference_is_transitive(h)


@bounded
@given(st.integers(1, 500), seeds)
def test_cycles_match_reference(n, rng):
    p = random_perm(rng, n)
    for canonical in (True, False):
        assert cycles(p, canonical) == reference_cycles(p, canonical)
    assert _cycle_count(p.images) == len(reference_cycles(p).cycles)


@bounded
@given(st.integers(1, 500), seeds)
def test_conjugate_matches_reference(n, rng):
    p, phi = random_perm(rng, n), random_perm(rng, n)
    assert conjugate(p, phi) == reference_conjugate(p, phi)


@bounded
@given(st.integers(2, 500), seeds)
def test_is_transitive_matches_reference(n, rng):
    joined = random_hypermap(rng, n)
    isolated = with_isolated_dart(rng, n)
    assert is_transitive(joined) and reference_is_transitive(joined)
    assert not is_transitive(isolated) and not reference_is_transitive(isolated)
    # few swaps leave many components; two shuffles are usually transitive
    shuffled = [list(range(1, n + 1)) for _ in range(2)]
    for images in shuffled:
        rng.shuffle(images)
    for pair in (
        PermPair(random_perm(rng, n), random_perm(rng, n)),
        PermPair(*(Permutation(tuple(images)) for images in shuffled)),
    ):
        assert is_transitive(pair) == reference_is_transitive(pair)


# the cycle counts go through _cycle_count, which the tests above check
# against the reference form
@bounded
@given(st.integers(2, 5000), seeds)
def test_psi_round_trip_and_statistics(n, rng):
    theta = random_indecomposable(rng, n)
    h = psi(theta)
    assert is_transitive(h)  # psi skips Hypermap's check
    assert psi_inverse(h) == theta
    assert _cycle_count(h.alpha.images) == _cycle_count(theta.images)  # cycles to hyper-edges
    assert _cycle_count(h.sigma.images) == len(lr_maxima(theta))  # maxima to vertices


@bounded
@given(st.integers(2, 5000), seeds)
def test_psi_rejects_decomposable(n, rng):
    with pytest.raises(Decomposable):
        psi(random_decomposable(rng, n))


@bounded
@given(st.integers(1, 5000), seeds)
def test_phi_bijection_involution_swaps_statistics(n, rng):
    sizes = random_block_sizes(rng, n)
    p = random_blocks(rng, sizes)
    assert [b.n for b in blocks(p)] == sizes
    q = phi_bijection(p)
    assert phi_bijection(q) == p
    assert _cycle_count(p.images) == len(lr_maxima(q))
    assert _cycle_count(q.images) == len(lr_maxima(p))


def test_phi_and_transform_inverse_match_reference_exhaustive():
    for n in range(1, 8):
        for images in itertools.permutations(range(1, n + 1)):
            p = Permutation(images)
            assert phi_bijection(p) == reference_phi(p)
            assert fundamental_transform_inverse(p) == reference_fundamental_transform_inverse(p)


# the shuffle, the pairing and its transform are the benchmark's three
# shapes; the concatenated random blocks move the block offsets
@bounded
@given(st.integers(2, 5000), seeds)
def test_phi_and_transform_inverse_match_reference(n, rng):
    for p in (*run_edge_inputs(rng, n), random_blocks(rng, random_block_sizes(rng, n))):
        assert phi_bijection(p) == reference_phi(p)
        assert fundamental_transform_inverse(p) == reference_fundamental_transform_inverse(p)


def test_satisfies_lemma1_matches_reference_exhaustive():
    for n in range(1, 6):
        perms = [Permutation(im) for im in itertools.permutations(range(1, n + 1))]
        for s, a in itertools.product(perms, repeat=2):
            h = PermPair(s, a)
            assert satisfies_lemma1(h) == reference_satisfies_lemma1(h)


@bounded
@given(st.integers(1, 2000), seeds)
def test_satisfies_lemma1_matches_reference(n, rng):
    h = psi(random_indecomposable(rng, n + 1))
    assert satisfies_lemma1(h)
    # swapping two alpha images keeps sigma's intervals and may break the
    # minima; a relabeling usually breaks the intervals
    alpha = list(h.alpha.images)
    i, j = rng.randrange(n), rng.randrange(n)
    alpha[i], alpha[j] = alpha[j], alpha[i]
    phi = root_fixing_relabel(rng, n)
    for pair in (
        h,
        PermPair(h.sigma, Permutation(tuple(alpha))),
        PermPair(conjugate(h.sigma, phi), conjugate(h.alpha, phi)),
    ):
        assert satisfies_lemma1(pair) == reference_satisfies_lemma1(pair)


@bounded
@given(st.integers(1, 5000), seeds)
def test_fundamental_transform_swaps_cycles_for_maxima_and_keeps_blocks(n, rng):
    sizes = random_block_sizes(rng, n)
    p = random_blocks(rng, sizes)
    q = fundamental_transform(p)
    assert fundamental_transform_inverse(q) == p
    assert [q(i) for i in lr_maxima(q)] == [c[0] for c in cycles(p).cycles]  # cycle maxima
    assert [b.n for b in blocks(q)] == sizes
    r = fundamental_transform_inverse(p)
    assert fundamental_transform(r) == p
    assert _cycle_count(r.images) == len(lr_maxima(p))
    assert [b.n for b in blocks(r)] == sizes


@bounded
@given(st.integers(2, 2500), seeds)
def test_psi_prime_round_trip_and_statistics(m, rng):
    theta = random_pairing(rng, 2 * m)
    rooted = psi_prime(theta)
    assert is_fpf_involution(rooted.alpha)  # alpha stays a pairing
    assert _cycle_count(rooted.sigma.images) == len(lr_maxima(theta))  # vertices are maxima
    assert rooted == reference_psi_prime(theta)
    assert psi_prime_inverse(rooted) == reference_psi_prime_inverse(rooted) == theta
    phi = root_fixing_relabel(rng, rooted.n)
    moved = Hypermap(conjugate(rooted.sigma, phi), conjugate(rooted.alpha, phi))
    assert psi_prime_inverse(moved) == reference_psi_prime_inverse(moved) == theta


@bounded
@given(st.integers(1, 2000), seeds)
def test_inverses_match_reference_on_root_fixing_relabelings(n, rng):
    # any labeling of a class reads back to the same permutation, as the
    # composites through the canonical hypermap read it
    h = random_hypermap(rng, n)
    phi = root_fixing_relabel(rng, n)
    moved = PermPair(conjugate(h.sigma, phi), conjugate(h.alpha, phi))
    assert psi_inverse(moved) == reference_psi_inverse(moved) == reference_psi_inverse(h)
    theta = random_pairing(rng, 2 * max(2, n // 2))
    rooted = psi_prime(theta)
    phi = root_fixing_relabel(rng, rooted.n)
    moved = Hypermap(conjugate(rooted.sigma, phi), conjugate(rooted.alpha, phi))
    assert psi_prime_inverse(moved) == reference_psi_prime_inverse(moved) == theta


def merge_two_pairs(rng, images):
    """Swap the images of two darts in different pairs, which joins the
    two pairs into one 4-cycle."""
    images = list(images)
    i = rng.randrange(len(images))
    j = rng.choice([k for k in range(len(images)) if k != i and k != images[i] - 1])
    images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


@bounded
@given(st.integers(3, 2500), seeds)
def test_psi_prime_rejects_near_valid_input(m, rng):
    theta = random_pairing(rng, 2 * m)
    with pytest.raises(NotFpf):
        psi_prime(merge_two_pairs(rng, theta.images))
    left = rng.randint(1, m - 1)
    a, b = random_pairing(rng, 2 * left), random_pairing(rng, 2 * (m - left))
    with pytest.raises(Decomposable):
        psi_prime(Permutation(a.images + tuple(v + 2 * left for v in b.images)))
    rooted = psi_prime(theta)
    with pytest.raises(NotFpf):
        psi_prime_inverse(Hypermap(rooted.sigma, merge_two_pairs(rng, rooted.alpha.images)))
