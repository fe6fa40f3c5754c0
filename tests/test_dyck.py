"""Labeled Dyck paths: validation, the placement bijection, scheme
conversion, and enumeration."""

import itertools
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permaps import dyck
from permaps.dyck import (
    DELTA,
    RV,
    LabeledDyckPath,
    convert_label_scheme,
    count_labelings,
    delta,
    delta_inverse,
    enum_dyck_paths,
    enum_labelings,
    format_labeled_path,
    is_primitive,
    parse_labeled_path,
    validate_dyck,
    validate_labeling,
)
from permaps.errors import (
    InvalidLabeling,
    InvalidPath,
    ParseError,
    PermapsError,
    PlacementOutOfRange,
)
from permaps.perm import Permutation, cycles, identity, is_indecomposable, lr_maxima
from reference import (
    all_perms,
    reference_convert_label_scheme,
    random_perm,
    reference_count_labelings,
    reference_delta,
    reference_delta_inverse,
    reference_enum_dyck_paths,
    reference_validate_labeling,
)


# --- words and validation ---------------------------------------------------


def test_validate_dyck():
    assert validate_dyck("")
    assert validate_dyck("ab")
    assert validate_dyck("aabbab")
    assert not validate_dyck("ba")
    assert not validate_dyck("aab")
    assert not validate_dyck("abx")


def test_is_primitive():
    assert is_primitive("ab")
    assert is_primitive("aabb")
    assert not is_primitive("abab")
    assert not is_primitive("")
    with pytest.raises(InvalidPath):
        is_primitive("ba")


def test_token_syntax():
    with pytest.raises(ParseError):
        LabeledDyckPath(("a", "b"), DELTA)
    with pytest.raises(ParseError):
        LabeledDyckPath(("c",), DELTA)
    for tok in ("ab0", "ax", "a1"):  # an a token is "a" and nothing more
        with pytest.raises(ParseError):
            LabeledDyckPath(("a", tok), DELTA)
    with pytest.raises(ValueError):
        LabeledDyckPath(("a", "b0"), "other")
    # int() reads "b\u0660" (ARABIC-INDIC ZERO) as label 0: a second "a b0"
    with pytest.raises(ParseError):
        parse_labeled_path("a b\u0660")


def test_validate_labeling_delta():
    assert validate_labeling(parse_labeled_path("a b0"))
    assert validate_labeling(parse_labeled_path("a a b0 b1"))
    # peak must carry 0
    assert not validate_labeling(parse_labeled_path("a b1"))
    assert not validate_labeling(parse_labeled_path("a a b2 b1"))
    # non-peak label bounded by the height in front of it
    assert not validate_labeling(parse_labeled_path("a a b0 b2"))
    assert not validate_labeling(parse_labeled_path("a a b0 b0"))
    # underlying word must be Dyck
    assert not validate_labeling(LabeledDyckPath(("b0",), DELTA))
    assert not validate_labeling(LabeledDyckPath(("a", "b0", "b1"), DELTA))
    # a label too long for int() is out of range, not a crash
    huge = LabeledDyckPath(("a", "a", "b0", "b" + "1" * 5000), DELTA)
    assert not validate_labeling(huge)
    with pytest.raises(InvalidLabeling):
        delta_inverse(huge)
    with pytest.raises(InvalidLabeling):
        convert_label_scheme(huge)


def test_zero_padded_labels():
    # a label is read as an integer, so leading zeros name the same label
    for padded, plain, images in (
        ("a b00", "a b0", (1,)),
        ("a a b0 b01", "a a b0 b1", (2, 1)),
        ("a a a b000 b002 b01", "a a a b0 b2 b1", (3, 1, 2)),
    ):
        lp, same = parse_labeled_path(padded), parse_labeled_path(plain)
        assert validate_labeling(lp) and reference_validate_labeling(lp)
        assert delta_inverse(lp) == delta_inverse(same) == Permutation(images)
        assert convert_label_scheme(lp) == convert_label_scheme(same)
    assert validate_labeling(parse_labeled_path("a a b01 b001", RV))
    assert convert_label_scheme(parse_labeled_path("a a b01 b001", RV)) == parse_labeled_path(
        "a a b0 b1"
    )
    # padding does not bring a label into range
    for bad in ("a b01", "a a b0 b02", "a a b00 b00"):
        assert not validate_labeling(parse_labeled_path(bad))
        with pytest.raises(InvalidLabeling):
            delta_inverse(parse_labeled_path(bad))


def test_validate_labeling_rv():
    assert validate_labeling(parse_labeled_path("a b1", RV))
    assert validate_labeling(parse_labeled_path("a a b1 b1", RV))
    assert validate_labeling(parse_labeled_path("a a a b1 b2 b1", RV))
    # peak must carry 1, 0 is never legal, and labels stay within height
    assert not validate_labeling(parse_labeled_path("a b0", RV))
    assert not validate_labeling(parse_labeled_path("a a b2 b1", RV))
    assert not validate_labeling(parse_labeled_path("a a b1 b2", RV))


# --- the placement bijection --------------------------------------------------


def test_delta_worked_example():
    p = Permutation((3, 7, 5, 8, 9, 2, 6, 4, 1))
    w = delta(p)
    assert format_labeled_path(w) == "a a a a b0 a a a b0 b1 a a b0 b4 b2 b1 b1 b1"
    assert delta_inverse(w) == p


def test_delta_small_cases():
    assert format_labeled_path(delta(Permutation((1,)))) == "a b0"
    assert format_labeled_path(delta(Permutation((2, 1)))) == "a a b0 b1"
    assert format_labeled_path(delta(identity(2))) == "a b0 a b0"


def test_delta_round_trip_exhaustive():
    for n in range(1, 7):
        seen = set()
        for p in all_perms(n):
            w = delta(p)
            assert len(w.word) == 2 * n
            assert validate_labeling(w)
            assert delta_inverse(w) == p
            seen.add(w.word)
        assert len(seen) == len(list(all_perms(n)))


def test_delta_statistics_exhaustive():
    for n in range(1, 7):
        for p in all_perms(n):
            w = delta(p)
            b0 = sum(1 for t in w.word if t == "b0")
            b1 = sum(1 for t in w.word if t == "b1")
            fixed = sum(1 for i in range(1, n + 1) if p(i) == i)
            k = len(lr_maxima(p))
            assert b0 == len(cycles(p).cycles)
            assert is_primitive(w.underlying()) == is_indecomposable(p)
            assert b1 <= k <= b1 + fixed
            if is_indecomposable(p) and n >= 2:
                assert b1 == k


def test_delta_inverse_guards():
    with pytest.raises(InvalidLabeling):
        delta_inverse(parse_labeled_path("a a b1 b1", RV))
    with pytest.raises(InvalidLabeling):
        delta_inverse(parse_labeled_path("a b1"))
    with pytest.raises(InvalidLabeling):
        delta_inverse(LabeledDyckPath((), DELTA))
    # nothing raises the out-of-range error: the walk caps every label by
    # the height in front, which is the free-slot count; the public class
    # stays under InvalidLabeling
    assert issubclass(PlacementOutOfRange, InvalidLabeling)


@pytest.fixture()
def fresh_labels(monkeypatch):
    """The shared label table emptied for one test; the module's own
    table returns afterwards."""
    monkeypatch.setattr(dyck, "_LABELS", [])
    monkeypatch.setattr(dyck, "_LABEL_OF", {})


def _assert_labels_aligned():
    labels = dyck._LABELS
    assert labels == [f"b{k}" for k in range(len(labels))]
    assert dyck._LABEL_OF == {tok: k for k, tok in enumerate(labels)}


def test_concurrent_label_growth_keeps_the_table_aligned(fresh_labels):
    rng = random.Random(11)
    perms = [random_perm(rng, n) for n in (9, 64, 300, 1100)]
    expected = [reference_delta(p) for p in perms]
    workers = 4
    start = threading.Barrier(workers)
    results, errors = [], []

    def work(shift):
        # each worker takes the sizes in its own rotation, so that the
        # table grows from several threads while others read it
        try:
            start.wait(timeout=10)
            order = [(k + shift) % len(perms) for k in range(len(perms))]
            words = {k: delta(perms[k]) for k in order}
            backs = {k: delta_inverse(words[k]) for k in order}
            results.append([(words[k], backs[k]) for k in range(len(perms))])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [list(zip(expected, perms))] * workers
    assert len(dyck._LABELS) == 1101
    _assert_labels_aligned()


def test_labels_past_the_table_cap(fresh_labels):
    # the cycle (1, n, n-1, ..., 2) places 2, 3, ..., n at ranks n-1 down
    # to 1 from the pivot 1, so its labels run past the cap: those are
    # formatted and parsed by the call, and the table stops at the cap
    n = dyck._LABEL_CAP + 3
    p = Permutation((n, *range(1, n - 1), n - 1))
    w = delta(p)
    assert w.word == ("a",) * n + ("b0",) + tuple(f"b{k}" for k in range(n - 1, 0, -1))
    assert delta_inverse(w) == p
    assert delta_inverse(LabeledDyckPath(w.word, DELTA)) == p
    assert len(dyck._LABELS) == dyck._LABEL_CAP
    _assert_labels_aligned()
    q = random_perm(random.Random(5), n)
    assert delta_inverse(delta(q)) == q


# --- scheme conversion ----------------------------------------------------------


def test_convert_examples():
    lp = parse_labeled_path("a a b0 b1")
    out = convert_label_scheme(lp)
    assert out.scheme == RV
    assert format_labeled_path(out) == "a a b1 b1"
    assert convert_label_scheme(out) == lp


def test_convert_rejects_invalid():
    with pytest.raises(InvalidLabeling):
        convert_label_scheme(parse_labeled_path("a b1"))


def test_convert_involution_exhaustive():
    for n in range(0, 5):
        for word in enum_dyck_paths(n):
            for lp in enum_labelings(word, DELTA):
                out = convert_label_scheme(lp)
                assert out.underlying() == word
                assert validate_labeling(out)
                assert convert_label_scheme(out) == lp
            for lp in enum_labelings(word, RV):
                out = convert_label_scheme(lp)
                assert out.scheme == DELTA
                assert validate_labeling(out)
                assert convert_label_scheme(out) == lp


# --- enumeration -----------------------------------------------------------------


def test_enum_dyck_paths_catalan():
    counts = [len(list(enum_dyck_paths(n))) for n in range(7)]
    assert counts == [1, 1, 2, 5, 14, 42, 132]
    assert list(enum_dyck_paths(2)) == ["aabb", "abab"]
    with pytest.raises(ValueError):
        list(enum_dyck_paths(-1))


def test_enum_dyck_paths_matches_reference():
    for n in range(10):
        assert list(enum_dyck_paths(n)) == list(reference_enum_dyck_paths(n))


def test_enum_dyck_paths_does_not_recurse():
    # the recursive form needs a frame per step, past the default limit here
    assert next(enum_dyck_paths(2000)) == "a" * 2000 + "b" * 2000


def test_labeling_counts():
    # per-path counts multiply the heights-plus-one over non-peak b's,
    # agree across schemes, and sum to n! over all paths of length 2n
    for n in range(0, 6):
        total = 0
        for word in enum_dyck_paths(n):
            cnt = count_labelings(word, DELTA)
            assert cnt == count_labelings(word, RV)
            assert cnt == len(list(enum_labelings(word, DELTA)))
            assert cnt == len(list(enum_labelings(word, RV)))
            total += cnt
        import math

        assert total == math.factorial(n)


def test_enum_labelings_guards():
    with pytest.raises(InvalidPath):
        list(enum_labelings("ba"))
    with pytest.raises(ValueError):
        list(enum_labelings("ab", "other"))
    with pytest.raises(InvalidPath):
        count_labelings("ba")


def test_parse_format_round_trip():
    text = "a a a a b0 a a a b0 b1 a a b0 b4 b2 b1 b1 b1"
    lp = parse_labeled_path(text)
    assert format_labeled_path(lp) == text
    assert lp.underlying() == "aaaabaaabbaabbbbbb"
    with pytest.raises(ParseError):
        parse_labeled_path("")
    with pytest.raises(ParseError):
        parse_labeled_path("a b")


def test_trusted_construction_equals_the_checked_one():
    # delta, convert_label_scheme and enum_labelings build their paths
    # without re-running the token checks; every path with n <= 6
    def checked(lp):
        again = LabeledDyckPath(lp.word, lp.scheme)
        assert type(lp.word) is tuple and lp == again and hash(lp) == hash(again)
        assert str(lp) == str(again)
        return lp

    for n in range(7):
        labelings = 0
        for word in enum_dyck_paths(n):
            for scheme in (DELTA, RV):
                for lp in enum_labelings(word, scheme):
                    checked(convert_label_scheme(checked(lp)))
                    labelings += 1
        assert labelings == 2 * math.factorial(n)
        for p in all_perms(n) if n else ():
            checked(delta(p))


# --- against the hand-rolled reference checks -------------------------------------


def random_labeled_path(rng, n, scheme):
    """A random Dyck word of semilength n, half the time with one step
    flipped, dropped or inserted; its labels are admissible under scheme,
    except that half the paths draw some labels from 0..h+1 instead (h
    the height in front of the step)."""
    steps, height, ups = [], 0, 0
    while len(steps) < 2 * n:
        up = ups < n and (height == 0 or rng.random() < 0.5)
        steps.append("a" if up else "b")
        height += 1 if up else -1
        ups += up
    if steps and rng.random() < 0.5:
        i = rng.randrange(len(steps))
        kind = rng.choice(("flip", "drop", "insert"))
        if kind == "flip":
            steps[i] = "b" if steps[i] == "a" else "a"
        elif kind == "drop":
            del steps[i]
        else:
            steps.insert(i, rng.choice("ab"))
    noise = rng.choice((0.0, 1.0 / len(steps) if steps else 0.0, 0.5))
    tokens, height = [], 0
    for i, step in enumerate(steps):
        if step == "a":
            tokens.append("a")
            height += 1
            continue
        top = max(height, 0)
        if rng.random() < noise:
            label = rng.randint(0, top + 1)
        elif i and steps[i - 1] == "a":
            label = 0 if scheme == DELTA else 1
        else:
            label = rng.randint(1, max(top, 1))
        tokens.append(f"b{label}")
        height -= 1
    return LabeledDyckPath(tuple(tokens), scheme)


def outcome(f, *args):
    """What f returns, or the type and message of the declared error it raises."""
    try:
        return f(*args)
    except PermapsError as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 200), st.sampled_from((DELTA, RV)), st.integers(0, 2**32).map(random.Random))
def test_labelings_match_reference(n, scheme, rng):
    lp = random_labeled_path(rng, n, scheme)
    assert validate_labeling(lp) == reference_validate_labeling(lp)
    assert outcome(convert_label_scheme, lp) == outcome(reference_convert_label_scheme, lp)
    word = lp.underlying()
    assert outcome(count_labelings, word, scheme) == outcome(
        reference_count_labelings, word, scheme
    )
    if scheme == DELTA:
        assert outcome(delta_inverse, lp) == outcome(reference_delta_inverse, lp)


def test_delta_inverse_outcomes_match_reference_exhaustive():
    # delta_inverse walks the word in its own loop; every word of up to six
    # tokens over a, b0, b1, b2 and the zero-padded b01 pins its rules
    for length in range(7):
        for word in itertools.product(("a", "b0", "b1", "b2", "b01"), repeat=length):
            lp = LabeledDyckPath(word, DELTA)
            assert outcome(delta_inverse, lp) == outcome(reference_delta_inverse, lp)
