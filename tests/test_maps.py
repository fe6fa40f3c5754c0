"""Rooted maps: the pairing bijection, counts, and vertex distributions."""

import itertools
from collections import Counter

import pytest

import permaps.hypermap
import permaps.maps
from permaps.dyck import delta
from permaps.enumpoly import M_family
from permaps.errors import Decomposable, NotFpf, NotTransitive, SizeTooSmall
from permaps.hypermap import (
    Hypermap,
    PermPair,
    _scan,
    canonical_rooted_form,
    hypermap_to_text,
    psi,
    psi_inverse,
    rooted_isomorphic,
)
from permaps.maps import (
    RootedMap,
    is_fpf_involution,
    map_count,
    map_count_by_vertices,
    map_to_json_dict,
    psi_prime,
    psi_prime_inverse,
)
from permaps.perm import (
    Permutation,
    conjugate,
    cycles,
    identity,
    is_indecomposable,
    lr_maxima,
    parse_permutation,
)
from reference import (
    all_perms,
    outcome,
    reference_enum_fpf_involutions,
    reference_psi_prime,
    reference_psi_prime_inverse,
)


def test_is_fpf_involution():
    assert is_fpf_involution(Permutation((2, 1)))
    assert is_fpf_involution(Permutation((3, 4, 1, 2)))
    assert not is_fpf_involution(identity(2))
    assert not is_fpf_involution(Permutation((1,)))
    assert not is_fpf_involution(Permutation((2, 3, 1)))
    # involution with a fixed point
    assert not is_fpf_involution(Permutation((2, 1, 3)))


def test_fpf_enumeration_counts():
    assert sum(1 for _ in reference_enum_fpf_involutions(2)) == 1
    assert sum(1 for _ in reference_enum_fpf_involutions(4)) == 3
    assert sum(1 for _ in reference_enum_fpf_involutions(6)) == 15
    assert sum(1 for _ in reference_enum_fpf_involutions(8)) == 105


def test_rooted_map_type():
    m = RootedMap(Permutation((1, 2)), Permutation((2, 1)))
    assert m.edge_count == 1
    with pytest.raises(NotFpf):
        RootedMap(parse_permutation("(1,2,3)", "cycle"), identity(3))
    with pytest.raises(NotTransitive):
        RootedMap(identity(4), Permutation((2, 1, 4, 3)))


def test_psi_prime_examples():
    m = psi_prime(Permutation((3, 4, 1, 2)))
    assert hypermap_to_text(m) == "sigma=(1)(2);alpha=(1,2)"
    m = psi_prime(Permutation((4, 3, 2, 1)))
    assert hypermap_to_text(m) == "sigma=(1,2);alpha=(1,2)"


def test_psi_prime_guards():
    with pytest.raises(NotFpf):
        psi_prime(Permutation((2, 3, 1)))
    with pytest.raises(SizeTooSmall):
        psi_prime(Permutation((2, 1)))
    with pytest.raises(Decomposable):
        psi_prime(Permutation((2, 1, 4, 3)))


def test_psi_prime_round_trip_exhaustive():
    for size in (4, 6, 8, 10):
        thetas = [t for t in reference_enum_fpf_involutions(size) if is_indecomposable(t)]
        images = set()
        # a root-fixing relabeling: reverse the darts below the root
        phi = Permutation(tuple(range(size - 3, 0, -1)) + (size - 2,))
        for t in thetas:
            m = psi_prime(t)
            assert m == reference_psi_prime(t)
            assert m.n == size - 2
            assert is_fpf_involution(m.alpha)
            assert len(cycles(m.sigma).cycles) == len(lr_maxima(t))
            assert psi_prime_inverse(m) == reference_psi_prime_inverse(m) == t
            moved = Hypermap(conjugate(m.sigma, phi), conjugate(m.alpha, phi))
            assert psi_prime_inverse(moved) == reference_psi_prime_inverse(moved) == t
            images.add((m.sigma.images, m.alpha.images))
        assert len(images) == len(thetas) == map_count((size - 2) // 2)


def test_psi_prime_images_cover_isomorphism_classes():
    # m = 1: two rooted maps, one vertex or two, pairwise non-isomorphic
    thetas = [t for t in reference_enum_fpf_involutions(4) if is_indecomposable(t)]
    maps = [psi_prime(t) for t in thetas]
    assert not rooted_isomorphic(maps[0], maps[1])
    assert sorted(len(cycles(m.sigma).cycles) for m in maps) == [1, 2]


def test_psi_prime_inverse_accepts_any_labeling():
    # relabeled copies of an image round-trip to the same pairing
    theta = Permutation((3, 4, 1, 2))
    m = psi_prime(theta)
    relabeled = Hypermap(m.sigma, m.alpha)
    assert psi_prime_inverse(relabeled) == theta
    with pytest.raises(NotFpf):
        psi_prime_inverse(Hypermap(parse_permutation("(1,2,3)", "cycle"), identity(3)))


def test_psi_prime_inverse_matches_reference_on_every_small_pair():
    # every (sigma, pairing) of size 2, 4 and 6, transitive or not: the
    # same pairing, or the same declared error, as the composite through
    # the canonical hypermap and the hypermap bijection on one dart more
    for size in (2, 4, 6):
        sigmas = list(all_perms(size))
        for sigma, alpha in itertools.product(sigmas, reference_enum_fpf_involutions(size)):
            pair = PermPair(sigma, alpha)
            assert outcome(psi_prime_inverse, pair) == outcome(reference_psi_prime_inverse, pair)


def test_psi_prime_inverse_checks_the_pairing_of_other_pairs_only(monkeypatch):
    # a RootedMap is a pairing by construction; a Hypermap is checked once
    theta = Permutation((4, 6, 5, 1, 3, 2))
    m = psi_prime(theta)
    built = RootedMap(m.sigma, m.alpha)
    calls = []

    def counted(p):
        calls.append(p)
        return is_fpf_involution(p)

    monkeypatch.setattr(permaps.maps, "is_fpf_involution", counted)
    assert psi_prime_inverse(m) == psi_prime_inverse(built) == theta
    assert calls == []
    assert psi_prime_inverse(Hypermap(m.sigma, m.alpha)) == theta
    assert len(calls) == 1
    with pytest.raises(NotFpf):
        psi_prime_inverse(PermPair(m.sigma, identity(m.n)))


def test_psi_prime_output_equals_a_checked_rooted_map():
    # psi_prime's map skips RootedMap's checks; it must be
    # indistinguishable from one built through RootedMap(...)
    for size in range(4, 11, 2):
        for theta in filter(is_indecomposable, reference_enum_fpf_involutions(size)):
            m = psi_prime(theta)
            checked = RootedMap(Permutation(m.sigma.images), Permutation(m.alpha.images))
            assert type(m) is RootedMap and type(m.sigma) is Permutation
            assert m == checked and hash(m) == hash(checked)


def test_each_inverse_scans_once(monkeypatch):
    # one canonical scan each, and no canonical hypermap built on the way
    scans, forms = [], []

    def counted_scan(*args):
        scans.append(args)
        return _scan(*args)

    def counted_form(h):
        forms.append(h)
        return canonical_rooted_form(h)

    monkeypatch.setattr(permaps.hypermap, "_scan", counted_scan)
    monkeypatch.setattr(permaps.hypermap, "canonical_rooted_form", counted_form)
    theta = Permutation((4, 6, 5, 1, 3, 2))
    for forward, inverse in ((psi_prime, psi_prime_inverse), (psi, psi_inverse)):
        image = forward(theta)
        scans.clear()
        assert inverse(image) == theta
        assert len(scans) == 1 and forms == []


def test_vertex_census_matches_M_prime():
    for size in (4, 6, 8):
        m_edges = (size - 2) // 2
        census = Counter(
            len(cycles(psi_prime(t).sigma).cycles)
            for t in reference_enum_fpf_involutions(size)
            if is_indecomposable(t)
        )
        Mp = M_family(m_edges + 1)[1]
        expected = {
            v: Mp.coefficient(0, v)
            for v in range(1, m_edges + 2)
            if Mp.coefficient(0, v)
        }
        assert dict(census) == expected
        assert all(
            map_count_by_vertices(m_edges, v) == c for v, c in expected.items()
        )


def test_map_counts():
    assert [map_count(m) for m in range(5)] == [1, 2, 10, 74, 706]
    assert map_count_by_vertices(3, 1) == 15
    assert map_count_by_vertices(1, 2) == 1
    assert map_count_by_vertices(2, 4) == 0
    with pytest.raises(ValueError):
        map_count(-1)
    with pytest.raises(ValueError):
        map_count_by_vertices(1, 0)


def test_delta_on_pairings():
    # a pairing of S_2m encodes as a path of length 4m with exactly m
    # aab0 factors (every cycle is a 2-cycle)
    for m_edges in (1, 2, 3):
        for t in reference_enum_fpf_involutions(2 * m_edges):
            w = delta(t)
            assert len(w.word) == 4 * m_edges
            text = " ".join(w.word)
            assert text.count("a a b0") == m_edges
            assert sum(1 for tok in w.word if tok == "b0") == m_edges


def test_map_json_marker():
    m = psi_prime(Permutation((3, 4, 1, 2)))
    d = map_to_json_dict(m)
    assert d["is_map"] is True
    assert d["n"] == 2
    assert d["alpha"] == [[1, 2]]
