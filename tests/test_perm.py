"""Permutation primitives: parsing, cycles, statistics, blocks, transform."""

import pytest

from permaps.cli import dispatch
from permaps.errors import EmptyInput, NotABijection, ParseError, SizeMismatch
from permaps.hypermap import hypermap_from_text
from permaps.perm import (
    Permutation,
    blocks,
    compose,
    concat_blocks,
    conjugate,
    cycles,
    format_cycles,
    format_permutation,
    from_cycles,
    fundamental_transform,
    fundamental_transform_inverse,
    identity,
    inverse,
    is_indecomposable,
    lr_maxima,
    parse_permutation,
    rl_minima,
)
from reference import all_perms


# --- construction and text forms ---------------------------------------


def test_constructor_rejects_non_bijections():
    with pytest.raises(NotABijection):
        Permutation(())
    with pytest.raises(NotABijection):
        Permutation((1, 1))
    with pytest.raises(NotABijection):
        Permutation((2, 3))
    with pytest.raises(NotABijection):
        Permutation((0, 1))
    # n plain ints each, so only the cover of 1..n rejects them: a repeat,
    # a value above n, a value below 1
    for images in ((1, 3, 3), (1, 2, 4), (0, 2, 3)):
        with pytest.raises(NotABijection):
            Permutation(images)


@pytest.mark.parametrize(
    "images",
    [(2.0, 1.0), (3.0, 1, 2), (True,), (2, True), (1, "2")],
    ids=["floats", "one-float", "bool", "bool-among-ints", "str"],
)
def test_constructor_rejects_non_int_images(images):
    # floats and bools compare equal to valid images; a str mixes types
    with pytest.raises(NotABijection):
        Permutation(images)


def test_from_cycles_rejects_non_int_elements():
    with pytest.raises(NotABijection):
        from_cycles([(1.0, 2.0)])
    with pytest.raises(NotABijection):
        from_cycles([(1, 2.0)], n=2)
    with pytest.raises(NotABijection):
        from_cycles([(True,)])


def test_parse_one_line():
    assert parse_permutation("3,1,2").images == (3, 1, 2)
    assert parse_permutation(" 3 , 1 , 2 ").images == (3, 1, 2)
    with pytest.raises(ParseError):
        parse_permutation("3,,2")
    with pytest.raises(ParseError):
        parse_permutation("a,b")
    with pytest.raises(ParseError):
        parse_permutation("0,1")
    with pytest.raises(ParseError):
        parse_permutation("")
    # int() reads any Unicode digit: "1\u0660" (ARABIC-INDIC ZERO) as 10
    with pytest.raises(ParseError):
        parse_permutation("1\u0660,2,3,4,5,6,7,8,9,1")
    with pytest.raises(NotABijection):
        parse_permutation("1,1")
    with pytest.raises(NotABijection):
        parse_permutation("2,3")


def test_parse_cycle():
    p = parse_permutation("(1,4)(2,7,5,3)(6)(8,9)", notation="cycle")
    assert p.images == (4, 7, 2, 1, 3, 6, 5, 9, 8)
    # whitespace is insignificant, rotations and cycle order are free
    q = parse_permutation(" (7,5,3,2) (4,1) (9,8) (6) ", notation="cycle")
    assert q == p
    with pytest.raises(ParseError):
        parse_permutation("(1,2", notation="cycle")
    with pytest.raises(ParseError):
        parse_permutation("1,2", notation="cycle")
    with pytest.raises(ParseError):
        parse_permutation("()", notation="cycle")
    with pytest.raises(ParseError):
        parse_permutation("(\u0661,\u0662)", notation="cycle")
    # omitted fixed points are an error, not an implicit identity
    with pytest.raises(NotABijection):
        parse_permutation("(2,3)", notation="cycle")
    with pytest.raises(NotABijection):
        parse_permutation("(1,2)(2,3)", notation="cycle")


def test_parse_cycle_keeps_numbers_apart():
    # whitespace may stand around parentheses and commas, but not inside
    # a number: "1 0" is two digits, not ten
    with pytest.raises(ParseError, match="not parenthesized cycles"):
        parse_permutation("(2,1 0,3,4,5,6,7,8,9)(1)", notation="cycle")
    assert parse_permutation("( 2 ,1 )\t( 3 )\n", notation="cycle").images == (2, 1, 3)


def test_cli_rejects_a_space_inside_a_cycle_element(capsys):
    assert dispatch(["bij", "omr-inv", "--sigma", "(1 2)", "--alpha", "(1,2)"]) == 1
    assert "not parenthesized cycles: '(1 2)'" in capsys.readouterr().err


def test_parse_rejects_tokens_too_long_for_int():
    # past Python's int-string limit (4,300 digits) a token is still a
    # number outside 1..n, not a bare ValueError
    huge = "9" * 5000
    with pytest.raises(NotABijection, match="5000 digits lies outside 1..2"):
        parse_permutation("1," + huge)
    with pytest.raises(NotABijection, match="5000 digits lies outside 1..4"):
        parse_permutation(f"(1,2)(3,{huge})", notation="cycle")
    with pytest.raises(NotABijection, match="5000 digits lies outside 1..3"):
        hypermap_from_text(f"sigma=(1,2,{huge});alpha=(1)(2)(3)")
    with pytest.raises(NotABijection):
        parse_permutation("1," + "9" * 4000)


def test_format_round_trips_exhaustive():
    for n in range(1, 6):
        for p in all_perms(n):
            assert parse_permutation(format_permutation(p)) == p
            assert parse_permutation(format_permutation(p, "cycle"), "cycle") == p


def test_format_cycle_canonical():
    p = Permutation((4, 7, 2, 1, 3, 6, 5, 9, 8))
    assert format_permutation(p, "cycle") == "(4,1)(6)(7,5,3,2)(9,8)"
    assert format_cycles(cycles(p, canonical=False)) == "(1,4)(2,7,5,3)(6)(8,9)"
    assert format_permutation(identity(3), "cycle") == "(1)(2)(3)"


def test_unknown_notation():
    with pytest.raises(ValueError):
        parse_permutation("1", notation="two-line")
    with pytest.raises(ValueError):
        format_permutation(identity(2), notation="matrix")


# --- group operations ---------------------------------------------------


def test_compose_example():
    assert compose(Permutation((2, 3, 1)), Permutation((2, 1, 3))).images == (3, 2, 1)


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatch):
        compose(identity(2), identity(3))


def test_inverse_and_compose_exhaustive():
    for n in range(1, 6):
        e = identity(n)
        for p in all_perms(n):
            assert compose(p, inverse(p)) == e
            assert compose(inverse(p), p) == e


def test_conjugate():
    # relabeling through phi = identity is a no-op
    p = Permutation((3, 1, 2))
    assert conjugate(p, identity(3)) == p
    with pytest.raises(SizeMismatch):
        conjugate(p, identity(4))
    # conjugation preserves cycle type
    for p in all_perms(4):
        for phi in all_perms(4):
            q = conjugate(p, phi)
            assert sorted(len(c) for c in cycles(q).cycles) == sorted(
                len(c) for c in cycles(p).cycles
            )
        break  # one p with all phi is enough for the type check


def test_cycles_canonical_ordering():
    p = Permutation((6, 5, 7, 4, 2, 10, 3, 8, 9, 1))
    assert format_cycles(cycles(p)) == "(4)(5,2)(7,3)(8)(9)(10,1,6)"


def test_from_cycles_validation():
    with pytest.raises(NotABijection):
        from_cycles([])
    with pytest.raises(NotABijection):
        from_cycles([(1, 2)], n=3)
    # the set of elements covers 1..3, so only the count rejects the repeat
    with pytest.raises(NotABijection):
        from_cycles([(1, 2), (2, 3)])


# --- statistics ----------------------------------------------------------


def test_lr_maxima_examples():
    assert lr_maxima(Permutation((6, 5, 7, 4, 2, 10, 3, 8, 9, 1))) == (1, 3, 6)
    assert lr_maxima(Permutation((1, 2, 3))) == (1, 2, 3)
    assert lr_maxima(Permutation((3, 2, 1))) == (1,)


def test_lr_maxima_first_position_rule():
    # value n in first position leaves exactly one maximum
    for n in range(1, 6):
        for p in all_perms(n):
            assert (lr_maxima(p) == (1,)) == (p(1) == n)
            assert lr_maxima(p)[0] == 1
            assert p(lr_maxima(p)[-1]) == n


def test_rl_minima_examples():
    assert rl_minima(Permutation((4, 6, 5, 7, 3, 8, 1, 9, 10, 2))) == (7, 10)
    assert rl_minima(Permutation((1, 2, 3))) == (1, 2, 3)


def test_rl_minima_mirror_property():
    # last position always qualifies; value 1's position always qualifies
    for n in range(1, 6):
        for p in all_perms(n):
            mins = rl_minima(p)
            assert mins[-1] == n
            assert p.images.index(1) + 1 == mins[0]


def test_is_indecomposable_examples():
    assert is_indecomposable(Permutation((1,)))
    assert not is_indecomposable(Permutation((1, 2)))
    assert is_indecomposable(Permutation((2, 1)))
    assert not is_indecomposable(Permutation((3, 1, 2, 5, 4)))
    assert is_indecomposable(Permutation((6, 5, 7, 4, 2, 10, 3, 8, 9, 1)))


def test_indecomposable_closed_under_inverse():
    for n in range(1, 7):
        for p in all_perms(n):
            assert is_indecomposable(p) == is_indecomposable(inverse(p))


# --- blocks --------------------------------------------------------------


def test_blocks_example():
    assert blocks(Permutation((3, 1, 2, 5, 4))) == [
        Permutation((3, 1, 2)),
        Permutation((2, 1)),
    ]


def test_concat_blocks_empty():
    with pytest.raises(EmptyInput):
        concat_blocks([])


def test_blocks_round_trip_exhaustive():
    for n in range(1, 7):
        for p in all_perms(n):
            bs = blocks(p)
            assert all(is_indecomposable(b) for b in bs)
            assert concat_blocks(bs) == p
            assert (len(bs) == 1) == is_indecomposable(p)


# --- fundamental transform -----------------------------------------------


def test_fundamental_transform_example():
    p = Permutation((4, 7, 2, 1, 3, 6, 5, 9, 8))
    t = fundamental_transform(p)
    assert t.images == (4, 1, 6, 7, 5, 3, 2, 9, 8)
    assert fundamental_transform_inverse(t) == p


def test_fundamental_transform_exhaustive():
    for n in range(1, 7):
        for p in all_perms(n):
            t = fundamental_transform(p)
            assert fundamental_transform_inverse(t) == p
            assert len(cycles(p).cycles) == len(lr_maxima(t))
            assert is_indecomposable(p) == is_indecomposable(t)


def test_fundamental_transform_surjective():
    # the inverse round-trips from the image side too
    for n in range(1, 6):
        seen = set()
        for p in all_perms(n):
            t = fundamental_transform(p)
            assert fundamental_transform(fundamental_transform_inverse(t)) == t
            seen.add(t.images)
        assert len(seen) == len(list(all_perms(n)))
