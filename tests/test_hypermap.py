"""Hypermaps: transitivity, the interval-splitting bijection, canonical
labeling, rooted isomorphism, and the statistic-swapping involution."""

import itertools

import pytest

from permaps.errors import (
    Decomposable,
    NotTransitive,
    ParseError,
    SizeMismatch,
    SizeTooSmall,
)
from permaps.hypermap import (
    Hypermap,
    PermPair,
    canonical_rooted_form,
    hypermap_from_json_dict,
    hypermap_from_text,
    hypermap_to_json_dict,
    hypermap_to_text,
    is_transitive,
    phi_bijection,
    psi,
    psi_inverse,
    rooted_isomorphic,
    satisfies_lemma1,
)
from permaps.perm import (
    Permutation,
    conjugate,
    cycles,
    identity,
    inverse,
    is_indecomposable,
    lr_maxima,
    parse_permutation,
)
from reference import all_perms, outcome, reference_psi_inverse


def all_pairs(n):
    for s in all_perms(n):
        for a in all_perms(n):
            yield PermPair(s, a)


def indecomposables(n):
    return [p for p in all_perms(n) if is_indecomposable(p)]


# --- transitivity ---------------------------------------------------------


def test_is_transitive_examples():
    three_cycle = parse_permutation("(1,2,3)", "cycle")
    assert is_transitive(PermPair(three_cycle, identity(3)))
    assert is_transitive(PermPair(identity(3), three_cycle))
    assert not is_transitive(PermPair(identity(3), identity(3)))
    assert not is_transitive(
        PermPair(
            parse_permutation("(1,2)(3)", "cycle"),
            parse_permutation("(1,2)(3)", "cycle"),
        )
    )
    assert is_transitive(PermPair(identity(1), identity(1)))


def test_pair_size_mismatch():
    with pytest.raises(SizeMismatch):
        PermPair(identity(2), identity(3))


def test_make_hypermap():
    assert Hypermap(parse_permutation("(1,2,3)", "cycle"), identity(3))
    with pytest.raises(NotTransitive):
        Hypermap(identity(3), identity(3))
    with pytest.raises(NotTransitive):
        Hypermap(identity(2), identity(2))


# --- psi -------------------------------------------------------------------


def test_psi_worked_example():
    theta = Permutation((6, 5, 7, 4, 2, 10, 3, 8, 9, 1))
    h = psi(theta)
    assert hypermap_to_text(h) == (
        "sigma=(1,2)(3,4,5)(6,7,8,9);alpha=(1,6)(2,5)(3,7)(4)(8)(9)"
    )


def test_psi_guards():
    with pytest.raises(SizeTooSmall):
        psi(Permutation((1,)))
    with pytest.raises(Decomposable):
        psi(Permutation((1, 2)))
    with pytest.raises(Decomposable):
        psi(Permutation((3, 1, 2, 5, 4)))


def test_psi_statistics_exhaustive():
    for size in range(2, 7):
        for theta in indecomposables(size):
            h = psi(theta)
            assert h.n == size - 1
            assert len(cycles(h.alpha).cycles) == len(cycles(theta).cycles)
            assert len(cycles(h.sigma).cycles) == len(lr_maxima(theta))


def test_psi_injective_small():
    for size in range(2, 7):
        images = {(psi(t).sigma.images, psi(t).alpha.images) for t in indecomposables(size)}
        assert len(images) == len(indecomposables(size))


# --- canonical labeling ------------------------------------------------------


def canonical_pair(h):
    can, _ = canonical_rooted_form(h)
    return can.sigma.images, can.alpha.images


def test_canonical_rooted_form_trace():
    sig = parse_permutation("(1,6)(2,5)(3,7)(4)(8)(9)", "cycle")
    alp = parse_permutation("(1,2)(3,4,5)(6,7,8,9)", "cycle")
    can, phi = canonical_rooted_form(Hypermap(sig, alp))
    assert phi.images == (4, 6, 1, 5, 2, 7, 3, 8, 9)
    assert hypermap_to_text(can) == (
        "sigma=(1)(2,3)(4,5)(6,7)(8)(9);alpha=(1,4,7)(2,6,8,9)(3,5)"
    )
    assert can.alpha.images == (4, 6, 5, 7, 3, 8, 1, 9, 2)
    # phi fixes the root and conjugation through phi reproduces the output
    assert phi(9) == 9
    assert conjugate(sig, phi) == can.sigma
    assert conjugate(alp, phi) == can.alpha


def test_canonical_rooted_form_rejects_non_transitive_pairs():
    split = parse_permutation("(1,2)(3)", "cycle")
    a, b, c = (
        parse_permutation(text, "cycle")
        for text in ("(1,2)(3)(4)", "(1)(2,3)(4)", "(1)(2)(3,4)")
    )
    for pair in (
        PermPair(identity(3), identity(3)),
        PermPair(split, split),
        # the scan starts at the root, dart 4: cut off here ...
        PermPair(a, b),
        # ... and here joined to every dart but 1
        PermPair(b, c),
    ):
        assert not is_transitive(pair)
        with pytest.raises(NotTransitive):
            canonical_rooted_form(pair)


def test_canonical_output_equals_a_checked_hypermap():
    # the canonical pair skips the transitivity check; it must be
    # indistinguishable from one built through Hypermap(...)
    for h in filter(is_transitive, all_pairs(4)):
        can, phi = canonical_rooted_form(h)
        checked = Hypermap(Permutation(can.sigma.images), Permutation(can.alpha.images))
        assert type(can) is Hypermap and type(can.sigma) is Permutation
        assert can == checked and hash(can) == hash(checked)
        assert phi == Permutation(phi.images) and hash(phi) == hash(Permutation(phi.images))


def test_psi_output_equals_a_checked_hypermap():
    # psi's pair skips the transitivity check; it must be
    # indistinguishable from one built through Hypermap(...)
    for size in range(2, 8):
        for theta in indecomposables(size):
            h = psi(theta)
            checked = Hypermap(Permutation(h.sigma.images), Permutation(h.alpha.images))
            assert type(h) is Hypermap and type(h.sigma) is Permutation
            assert h == checked and hash(h) == hash(checked)


def test_canonical_idempotent_and_lemma1():
    for size in range(2, 7):
        for theta in indecomposables(size):
            h = psi(theta)
            can, phi = canonical_rooted_form(h)
            # psi images are already canonical
            assert phi == identity(h.n)
            assert (can.sigma, can.alpha) == (h.sigma, h.alpha)
            assert satisfies_lemma1(h)


def test_canonical_invariant_under_root_fixing_relabel():
    sig = parse_permutation("(1,6)(2,5)(3,7)(4)(8)(9)", "cycle")
    alp = parse_permutation("(1,2)(3,4,5)(6,7,8,9)", "cycle")
    h = Hypermap(sig, alp)
    base = canonical_pair(h)
    for images in itertools.permutations(range(1, 9)):
        phi = Permutation(images + (9,))
        relabeled = Hypermap(conjugate(sig, phi), conjugate(alp, phi))
        assert canonical_pair(relabeled) == base
        break  # one spot check here; the exhaustive sweep runs at n = 4
    for n in (3, 4):
        for theta in indecomposables(n + 1):
            h = psi(theta)
            base = canonical_pair(h)
            for images in itertools.permutations(range(1, n)):
                phi = Permutation(images + (n,))
                relabeled = Hypermap(conjugate(h.sigma, phi), conjugate(h.alpha, phi))
                assert canonical_pair(relabeled) == base


def test_satisfies_lemma1_characterizes_psi_images():
    # among transitive pairs, the syntactic conditions hold exactly on
    # the psi image set
    for n in (1, 2, 3, 4):
        images = {(psi(t).sigma.images, psi(t).alpha.images) for t in indecomposables(n + 1)}
        for pair in all_pairs(n):
            if not is_transitive(pair):
                continue
            expected = (pair.sigma.images, pair.alpha.images) in images
            assert satisfies_lemma1(pair) == expected


def test_satisfies_lemma1_examples():
    # identity vertices with one 2-edge: right-to-left minima of
    # alpha^{-1} = 2,1,3 are the values {1,3}, but {1,2} is required
    assert not satisfies_lemma1(
        PermPair(identity(3), parse_permutation("(1,2)(3)", "cycle"))
    )
    # non-interval vertex cycle
    assert not satisfies_lemma1(
        PermPair(parse_permutation("(1,3)(2)", "cycle"), identity(3))
    )
    # interval traversed decreasingly
    assert not satisfies_lemma1(
        PermPair(parse_permutation("(3,2,1)", "cycle"), identity(3))
    )
    assert satisfies_lemma1(PermPair(identity(1), identity(1)))


# --- psi_inverse -------------------------------------------------------------


def test_psi_inverse_trace():
    sig = parse_permutation("(1,6)(2,5)(3,7)(4)(8)(9)", "cycle")
    alp = parse_permutation("(1,2)(3,4,5)(6,7,8,9)", "cycle")
    assert psi_inverse(Hypermap(sig, alp)).images == (4, 6, 5, 7, 3, 8, 1, 9, 10, 2)


def test_psi_inverse_one_dart():
    assert psi_inverse(Hypermap(identity(1), identity(1))).images == (2, 1)


def test_psi_inverse_matches_reference_on_every_small_pair():
    # all 15,017 pairs of size <= 5, transitive or not: the same
    # permutation, or the same declared error, as the composite through
    # the canonical hypermap
    pairs = [pair for n in range(1, 6) for pair in all_pairs(n)]
    assert len(pairs) == 15_017
    for pair in pairs:
        assert outcome(psi_inverse, pair) == outcome(reference_psi_inverse, pair)


def test_psi_round_trip_exhaustive():
    for size in range(2, 7):
        for theta in indecomposables(size):
            assert psi_inverse(psi(theta)) == theta


def test_psi_inverse_lands_on_indecomposables():
    # from the hypermap side: every transitive pair maps to an
    # indecomposable permutation that splits back to its canonical form
    for n in (2, 3):
        for pair in all_pairs(n):
            if not is_transitive(pair):
                continue
            theta = psi_inverse(pair)
            assert is_indecomposable(theta)
            h = psi(theta)
            assert canonical_pair(pair) == (h.sigma.images, h.alpha.images)


# --- rooted isomorphism -------------------------------------------------------


def test_rooted_isomorphic_examples():
    h4 = Hypermap(parse_permutation("(1,2,3)", "cycle"), identity(3))
    h7 = Hypermap(identity(3), parse_permutation("(1,2,3)", "cycle"))
    assert not rooted_isomorphic(h4, h7)
    assert rooted_isomorphic(h4, h4)
    phi = Permutation((2, 1, 3))
    relabeled = Hypermap(conjugate(h4.sigma, phi), conjugate(h4.alpha, phi))
    assert rooted_isomorphic(h4, relabeled)
    with pytest.raises(SizeMismatch):
        rooted_isomorphic(h4, Hypermap(identity(1), identity(1)))


def test_psi_images_pairwise_non_isomorphic():
    for n in (2, 3, 4):
        forms = set()
        for theta in indecomposables(n + 1):
            forms.add(canonical_pair(psi(theta)))
        assert len(forms) == len(indecomposables(n + 1))


# --- phi_bijection -----------------------------------------------------------


def test_phi_worked_example():
    theta = Permutation((6, 5, 7, 4, 2, 10, 3, 8, 9, 1))
    assert phi_bijection(theta).images == (4, 6, 5, 7, 3, 8, 1, 9, 10, 2)


def test_phi_fixed_points_and_small_cases():
    assert phi_bijection(Permutation((1,))) == Permutation((1,))
    assert phi_bijection(identity(3)) == identity(3)
    assert phi_bijection(Permutation((2, 1))) == Permutation((2, 1))


def test_phi_involution_and_statistics():
    for n in range(1, 7):
        seen = set()
        for p in all_perms(n):
            q = phi_bijection(p)
            assert phi_bijection(q) == p
            assert len(cycles(p).cycles) == len(lr_maxima(q))
            assert len(cycles(q).cycles) == len(lr_maxima(p))
            assert is_indecomposable(p) == is_indecomposable(q)
            seen.add(q.images)
        assert len(seen) == len(list(all_perms(n)))


# --- text and JSON forms -------------------------------------------------------


def test_text_round_trip():
    text = "sigma=(1,2)(3,4,5)(6,7,8,9);alpha=(1,6)(2,5)(3,7)(4)(8)(9)"
    h = hypermap_from_text(text)
    assert hypermap_to_text(h) == text
    with pytest.raises(ParseError):
        hypermap_from_text("sigma=(1)")
    with pytest.raises(ParseError):
        hypermap_from_text("alpha=(1);sigma=(1)")
    with pytest.raises(NotTransitive):
        hypermap_from_text("sigma=(1)(2);alpha=(1)(2)")
    with pytest.raises(SizeMismatch):
        hypermap_from_text("sigma=(1,2);alpha=(1,2,3)")


def test_json_round_trip():
    theta = Permutation((6, 5, 7, 4, 2, 10, 3, 8, 9, 1))
    h = psi(theta)
    d = hypermap_to_json_dict(h)
    assert d["n"] == 9
    assert d["sigma"] == [[1, 2], [3, 4, 5], [6, 7, 8, 9]]
    assert hypermap_from_json_dict(d) == h
    with pytest.raises(ParseError):
        hypermap_from_json_dict({"n": 2, "sigma": [[1, 2]]})
    # n is read as written: a float is not truncated to a size
    with pytest.raises(ParseError):
        hypermap_from_json_dict({"n": 2.9, "sigma": [[1, 2]], "alpha": [[1], [2]]})
