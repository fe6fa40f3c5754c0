"""The slot bijection, the canonical scan, the image-indexed
permutation primitives and the hypermap bijections at sizes far beyond
the exhaustive sweeps: property tests against the reference forms in
``reference.py``, and a round trip at n = 10^5."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permaps.dyck import delta, delta_inverse
from permaps.errors import Decomposable, NotTransitive
from permaps.hypermap import (
    PermPair,
    canonical_rooted_form,
    is_transitive,
    phi_bijection,
    psi,
    psi_inverse,
)
from permaps.perm import Permutation, _cycle_count, blocks, conjugate, cycles, lr_maxima
from reference import (
    random_block_sizes,
    random_blocks,
    random_decomposable,
    random_indecomposable,
    random_perm,
    reference_canonical_rooted_form,
    reference_conjugate,
    reference_cycles,
    reference_delta,
    reference_delta_inverse,
    reference_is_transitive,
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
    images = list(range(1, n))
    rng.shuffle(images)
    phi = Permutation(tuple(images) + (n,))
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
