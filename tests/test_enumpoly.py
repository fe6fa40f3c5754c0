"""Counting sequences and polynomial families, frozen against values
verified by independent derivation and exhaustive enumeration."""

import math
import sys
import threading
from fractions import Fraction

import pytest

from permaps import enumpoly
from permaps.enumpoly import (
    BivariatePoly,
    SeriesInZ,
    L_family,
    L_of_path,
    M_family,
    M_of_path,
    arques_beraud_check,
    c_count,
    c_count_by_cycles,
    c_poly,
    double_factorial_odd,
    i_count,
    joint_perm_poly,
    stirling_number,
    stirling_poly,
    transitive_probability,
)
from permaps.dyck import enum_dyck_paths, is_primitive
from permaps.enumpoly import _walk
from permaps.errors import InternalMismatch, InvalidPath
from reference import reference_joint, reference_path_families


# --- polynomial type ---------------------------------------------------------


def test_poly_arithmetic():
    x, y = BivariatePoly.x(), BivariatePoly.y()
    p = (x + y) * (x + y)
    assert p == BivariatePoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert (p - p).is_zero
    assert 3 * x == BivariatePoly.monomial(1, 0, 3)
    assert p.coefficient(1, 1) == 2
    assert p.evaluate(2, 3) == 25
    assert p.evaluate(Fraction(1, 2), Fraction(1, 2)) == 1
    with pytest.raises(ValueError):
        BivariatePoly({(-1, 0): 1})
    # int() would truncate 1.5 and 2.7 and read "2"; bools are not ints here
    for bad in ({(1.5, 0): 2}, {(1, 0): 2.7}, {(1, 0): "2"}, {(1, "0"): 2},
                {(True, 0): 1}, {(1, 0): True}, [((0, 0.0), 1)]):
        with pytest.raises(ValueError):
            BivariatePoly(bad)
    # arithmetic takes polynomials and, for *, int scalars only
    for bad in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: x * 2.5,
                lambda: 2.5 * x, lambda: x * True, lambda: True * x, lambda: x * "2"):
        with pytest.raises(TypeError):
            bad()


def test_poly_substitution_and_swap():
    y = BivariatePoly.y()
    p = y * y  # y^2 -> (y+1)^2 = y^2 + 2y + 1
    assert p.subs_y_plus(1) == BivariatePoly({(0, 2): 1, (0, 1): 2, (0, 0): 1})
    q = BivariatePoly({(2, 1): 1, (1, 2): 3})
    assert q.swap_xy() == BivariatePoly({(1, 2): 1, (2, 1): 3})


def test_poly_string_forms():
    assert BivariatePoly.zero().to_string() == "0"
    assert BivariatePoly.constant(-7).to_string() == "-7"
    assert BivariatePoly({(2, 1): 1, (1, 2): 3}).to_string() == "x^2*y + 3*x*y^2"
    assert (
        BivariatePoly({(0, 4): 5, (0, 3): 22, (0, 2): 32, (0, 1): 15}).to_string()
        == "5*y^4 + 22*y^3 + 32*y^2 + 15*y"
    )
    assert BivariatePoly({(1, 0): 1, (0, 0): -1}).to_string() == "x - 1"


def test_poly_json_round_trip():
    p = BivariatePoly({(2, 1): 1, (1, 2): 3, (0, 0): -4})
    obj = p.to_json_obj()
    assert obj == [
        {"x": 2, "y": 1, "c": "1"},
        {"x": 1, "y": 2, "c": "3"},
        {"x": 0, "y": 0, "c": "-4"},
    ]
    assert BivariatePoly.from_json_obj(obj) == p
    assert BivariatePoly.from_json_obj([{"x": 1, "y": 0, "c": 2}]) == BivariatePoly({(1, 0): 2})


@pytest.mark.parametrize(
    "obj",
    [
        # (x, y) twice: the writer never repeats a monomial, and neither
        # the last term nor the sum of both may stand for it
        [{"x": 1, "y": 0, "c": "1"}, {"x": 1, "y": 0, "c": "2"}],
        [{"x": 1.5, "y": 0, "c": "1"}],  # not truncated to 1
        [{"x": True, "y": 0, "c": "1"}],  # not read as 1
        [{"x": 1, "y": 0, "c": 2.9}],  # not truncated to 2
        [{"x": 1, "c": "1"}],  # not a KeyError
        [{"x": 1, "y": 0, "c": " +2"}],  # not the decimal string written
    ],
)
def test_poly_json_reader_takes_only_what_the_writer_writes(obj):
    with pytest.raises(ValueError):
        BivariatePoly.from_json_obj(obj)


def test_series_record():
    zero, one, y = BivariatePoly.zero(), BivariatePoly.constant(1), BivariatePoly.y()
    with pytest.raises(ValueError):
        SeriesInZ([], -1)
    # coefficients are padded with zeros, or truncated, to order + 1
    padded, truncated = SeriesInZ([one], 2), SeriesInZ([one, y, one, y], 1)
    assert [padded.coefficient(m) for m in range(3)] == [one, zero, zero]
    assert (truncated.order, truncated.coefficient(1)) == (1, y)
    # an index outside the series raises ValueError, not IndexError or a wrap
    for m in (-1, 3):
        with pytest.raises(ValueError):
            padded.coefficient(m)
    z = SeriesInZ([zero, one], 4)
    geom = z.inverse_one_minus()
    assert geom.order == 4 and all(geom.coefficient(m) == one for m in range(5))
    with pytest.raises(ValueError):
        SeriesInZ([one], 3).inverse_one_minus()
    with pytest.raises(AttributeError):
        geom.order = 5
    assert not geom.is_zero and SeriesInZ([zero], 3).is_zero
    assert geom == SeriesInZ([one] * 5, 4) and hash(geom) == hash(SeriesInZ([one] * 5, 4))
    assert geom != SeriesInZ([one] * 5, 5) and geom != SeriesInZ([one] * 4, 4)


# --- scalar sequences -----------------------------------------------------------


def test_factorials():
    assert [double_factorial_odd(m) for m in range(6)] == [1, 1, 3, 15, 105, 945]
    with pytest.raises(ValueError):
        double_factorial_odd(-1)


def test_stirling_values():
    assert stirling_poly(0) == BivariatePoly.constant(1)
    assert stirling_poly(4).to_string() == "x^4 + 6*x^3 + 11*x^2 + 6*x"
    assert stirling_number(4, 2) == 11
    assert stirling_number(0, 0) == 1
    assert stirling_number(3, 0) == 0
    # row sums are factorials
    for n in range(1, 8):
        assert sum(stirling_number(n, k) for k in range(n + 1)) == math.factorial(n)


def test_c_count_sequence():
    assert [c_count(n) for n in range(1, 8)] == [1, 1, 3, 13, 71, 461, 3447]
    assert c_count(8) == 29093
    with pytest.raises(ValueError):
        c_count(0)


def test_c_count_direct_recurrences():
    # recompute both recurrences from scratch against the library values
    c = {n: c_count(n) for n in range(1, 9)}
    for n in range(2, 9):
        assert c[n] == math.factorial(n) - sum(
            c[p] * math.factorial(n - p) for p in range(1, n)
        )
        assert c[n] == sum(
            p * c[p] * math.factorial(n - 1 - p) for p in range(1, n)
        )
    # a third derivation, which the library does not compute: the quadratic
    # (Riccati) form of the same generating functions, past the sizes above
    #   c_n = (n-2) c_{n-1} + sum_{j<n} c_j c_{n-j}
    #   C_n = (n-1-x) C_{n-1} + sum_{j<n} C_j C_{n-j}
    c = [0] + [c_count(n) for n in range(1, 201)]
    for n in range(2, 201):
        assert c[n] == (n - 2) * c[n - 1] + sum(c[j] * c[n - j] for j in range(1, n))
    C = [None] + [c_poly(n) for n in range(1, 31)]
    for n in range(2, 31):
        linear = (BivariatePoly.constant(n - 1) - BivariatePoly.x()) * C[n - 1]
        assert C[n] == sum((C[j] * C[n - j] for j in range(1, n)), linear)


def test_c_triangle():
    expected = {
        2: [1],
        3: [2, 1],
        4: [6, 6, 1],
        5: [24, 34, 12, 1],
        6: [120, 210, 110, 20, 1],
        7: [720, 1452, 974, 270, 30, 1],
    }
    for n, row in expected.items():
        assert [c_count_by_cycles(n, k) for k in range(1, n)] == row
        assert sum(row) == c_count(n)
    with pytest.raises(ValueError):
        c_count_by_cycles(1, 1)
    with pytest.raises(ValueError):
        c_count_by_cycles(4, 4)
    with pytest.raises(ValueError):
        c_count_by_cycles(4, 0)


def test_c_poly():
    assert c_poly(1).to_string() == "x"
    assert c_poly(4).to_string() == "x^3 + 6*x^2 + 6*x"
    for n in range(2, 9):
        p = c_poly(n)
        assert all(py == 0 for _, py, _ in p.terms())
        assert [p.coefficient(k, 0) for k in range(1, n)] == [
            c_count_by_cycles(n, k) for k in range(1, n)
        ]
        assert p.evaluate(1, 1) == c_count(n)


def test_i_count():
    assert [i_count(m) for m in range(1, 5)] == [1, 2, 10, 74]
    with pytest.raises(ValueError):
        i_count(0)
    # recompute the sieve directly
    for m in range(2, 8):
        assert i_count(m) == double_factorial_odd(m) - sum(
            i_count(p) * double_factorial_odd(m - p) for p in range(1, m)
        )
    # the quadratic (Riccati) form: i_m = (2m-3) i_{m-1} + sum_{j<m} i_j i_{m-j}
    i = [0] + [i_count(m) for m in range(1, 201)]
    for m in range(2, 201):
        assert i[m] == (2 * m - 3) * i[m - 1] + sum(i[j] * i[m - j] for j in range(1, m))


# the path-family tables, each with the number of seed entries it starts from
_PATH_TABLES = {"_L": 1, "_M": 1, "_JOINT": 1}


@pytest.mark.parametrize(
    "table, entries, count, second, message",
    [
        pytest.param("_FACTORIALS", [1, 1, 2, 7], c_count, 1, r"^c_3: 4 != 3$", id="c_count"),
        pytest.param(
            "_DOUBLE_FACTORIALS", [1, 1, 3, 16], i_count, 2, r"^i_3: 11 != 10$", id="i_count"
        ),
    ],
)
def test_c_count_check_catches_a_wrong_factorial(
    monkeypatch, fresh_tables, table, entries, count, second, message
):
    # 3! (or 5!!) enters the size-3 count only through the subtraction recurrence
    monkeypatch.setattr(enumpoly, table, entries)
    assert count(2) == second
    with pytest.raises(InternalMismatch, match=message):
        count(3)


def test_c_poly_check_catches_a_wrong_stirling_poly(monkeypatch, fresh_tables):
    # A_3 enters C_3 only through the subtraction recurrence
    A = [stirling_poly(m) for m in range(4)]
    A[3] = A[3] + BivariatePoly.x()
    monkeypatch.setattr(enumpoly, "_A", A)
    assert c_poly(2).to_string() == "x"
    with pytest.raises(InternalMismatch, match=r"^C_3 recurrences disagree$"):
        c_count_by_cycles(3, 1)


def _assert_tables_aligned():
    # a value stored at the wrong index breaks these identities
    assert [a.evaluate(1, 1) for a in enumpoly._A] == [
        math.factorial(m) for m in range(len(enumpoly._A))
    ]
    assert [p.evaluate(1, 1) for p in enumpoly._C[1:]] == [
        c_count(n) for n in range(1, len(enumpoly._C))
    ]


def test_stirling_poly_beyond_the_recursion_limit(fresh_tables):
    assert stirling_poly(600).evaluate(1, 1) == math.factorial(600)


def test_tables_do_not_depend_on_call_order(fresh_tables):
    def compute():
        return (
            [c_count_by_cycles(30, k) for k in range(1, 30)],
            c_poly(10),
            [stirling_number(40, k) for k in range(41)],
            i_count(12),
        )

    top_down = compute()
    _assert_tables_aligned()
    fresh_tables()
    for n in range(41):
        stirling_poly(n)
    for n in range(1, 31):
        c_poly(n)
    assert compute() == top_down


def test_concurrent_growth_stores_aligned_entries(fresh_tables):
    size, workers = 24, 4
    expected = [c_poly(n) for n in range(1, size + 1)]
    fresh_tables()
    start = threading.Barrier(workers)
    results, errors = [], []

    def grow():
        try:
            start.wait(timeout=10)
            c_poly(size)  # grows every table it needs from its seeds
            results.append([c_poly(n) for n in range(1, size + 1)])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [expected] * workers
    assert enumpoly._C[1:] == expected
    _assert_tables_aligned()


# --- path polynomial families ------------------------------------------------------


def test_L_of_path_values():
    x, y = BivariatePoly.x(), BivariatePoly.y()
    assert L_of_path("ab") == x
    # the non-peak b of aabb sees height 0 behind it: weight y
    assert L_of_path("aabb") == x * y
    assert L_of_path("abab") == x * x
    assert L_of_path("aaabbb") == x * (y + BivariatePoly.constant(1)) * y
    with pytest.raises(InvalidPath):
        L_of_path("ba")


def test_L_family_frozen_values():
    assert L_family(2)[0].to_string() == "x^2 + x*y"
    assert L_family(2)[1].to_string() == "x*y"
    assert L_family(3)[0].to_string() == "x^3 + 3*x^2*y + x*y^2 + x*y"
    assert L_family(3)[1].to_string() == "x^2*y + x*y^2 + x*y"
    assert (
        L_family(4)[0].to_string()
        == "x^4 + 6*x^3*y + 6*x^2*y^2 + 5*x^2*y + x*y^3 + 3*x*y^2 + 2*x*y"
    )
    assert (
        L_family(4)[1].to_string()
        == "x^3*y + 3*x^2*y^2 + 3*x^2*y + x*y^3 + 3*x*y^2 + 2*x*y"
    )
    with pytest.raises(ValueError):
        L_family(0)


def test_L_family_specializations():
    for n in range(1, 9):
        L, Lp = L_family(n)
        assert L.evaluate(1, 1) == math.factorial(n)
        assert Lp.evaluate(1, 1) == c_count(n)
        # y = 1 collapses the primitive side onto the cycle polynomial
        collapsed = {}
        for px, py, v in Lp.terms():
            collapsed[px] = collapsed.get(px, 0) + v
        assert collapsed == {
            k: c_poly(n).coefficient(k, 0)
            for k in range(1, n + 1)
            if c_poly(n).coefficient(k, 0)
        }


def test_L_prime_symmetry():
    assert L_family(1)[1].swap_xy() != L_family(1)[1]  # x alone, by design
    for n in range(2, 9):
        Lp = L_family(n)[1]
        assert Lp.swap_xy() == Lp


def test_M_of_path_values():
    y = BivariatePoly.y()
    one = BivariatePoly.constant(1)
    assert M_of_path("ab") == y
    assert M_of_path("aabb") == y * (y + one)
    assert M_of_path("abab") == y * y


def test_M_family_frozen_values():
    assert M_family(1)[1].to_string() == "y"
    assert M_family(2)[1].to_string() == "y^2 + y"
    assert M_family(2)[0].to_string() == "2*y^2 + y"
    assert M_family(3)[1].to_string() == "2*y^3 + 5*y^2 + 3*y"
    assert M_family(3)[0].to_string() == "5*y^3 + 7*y^2 + 3*y"
    assert M_family(4)[1].to_string() == "5*y^4 + 22*y^3 + 32*y^2 + 15*y"
    with pytest.raises(ValueError):
        M_family(0)


def test_M_family_specializations():
    for m in range(1, 8):
        M, Mp = M_family(m)
        assert M.evaluate(1, 1) == double_factorial_odd(m)
        assert Mp.evaluate(1, 1) == i_count(m)
        assert all(px == 0 for px, _, _ in M.terms() + Mp.terms())



@pytest.mark.parametrize(
    "rule, of_path",
    [
        (enumpoly._L_RULE, L_of_path),
        (enumpoly._M_RULE, M_of_path),
        # a peak landing at height 0 weighs x*y
        (enumpoly._JOINT_RULE, lambda w: enumpoly._path_weight(w, enumpoly._JOINT_RULE)),
    ],
    ids=["L", "M", "joint"],
)
def test_state_merged_path_sum_matches_per_word_sum(rule, of_path):
    every_size, primitive_size = _walk(8, rule, 0), _walk(8, rule, 1)
    # the empty word counts once among all words and is not primitive
    assert every_size[0] == BivariatePoly.constant(1)
    assert primitive_size[0] == BivariatePoly.zero()
    for n in range(1, 9):
        words = list(enum_dyck_paths(n))
        every = sum((of_path(w) for w in words), BivariatePoly.zero())
        primitive = sum(
            (of_path(w) for w in words if is_primitive(w)), BivariatePoly.zero()
        )
        assert every_size[n] == every
        assert primitive_size[n] == primitive


def test_walk_matches_the_recurrences_up_to_30():
    # the first-return recurrences and the series inverse that produced
    # the families before the walk, on dict polynomials
    L, Lp = reference_path_families(30, BivariatePoly.x())
    M, Mp = reference_path_families(30, None)
    joint = reference_joint(Lp)
    for n in range(1, 31):
        assert L_family(n) == (L[n], Lp[n])
        assert M_family(n) == (M[n], Mp[n])
        assert joint_perm_poly(n) == joint.coefficient(n)


@pytest.fixture
def fresh_path_families(monkeypatch):
    """The path-family tables cut back to their seeds for one test;
    calling the fixture's value cuts them back again."""
    def reset():
        for name, seeds in _PATH_TABLES.items():
            monkeypatch.setattr(enumpoly, name, getattr(enumpoly, name)[:seeds])
    reset()
    return reset


def test_walks_past_stored_sizes_above_10_match_one_walk(fresh_path_families):
    # growing a table that already holds sizes above the recurrence limit
    # walks again from size 1 and keeps only the new sizes
    for n in (12, 20, 30):
        L_family(n), M_family(n), joint_perm_poly(n)
    grown = {name: getattr(enumpoly, name) for name in _PATH_TABLES}
    assert [len(table) for table in grown.values()] == [31] * 3
    fresh_path_families()
    L_family(30), M_family(30), joint_perm_poly(30)
    assert {name: getattr(enumpoly, name) for name in _PATH_TABLES} == grown


def test_path_sum_check_catches_a_wrong_recurrence(monkeypatch, fresh_path_families):
    # y -> y + 2 where the recurrence asks for y + 1; the path sum does not
    # substitute, so only the recurrence side goes wrong
    subs_y_plus = BivariatePoly.subs_y_plus
    monkeypatch.setattr(BivariatePoly, "subs_y_plus", lambda self, k: subs_y_plus(self, 2))
    with pytest.raises(InternalMismatch, match="recurrence vs path sum at m=2"):
        M_family(2)
    # L_1 = x has no y to shift, so L_2 still comes out right; L_3 does not
    assert L_family(2)[1].to_string() == "x*y"
    with pytest.raises(InternalMismatch, match="recurrence vs path sum at n=3"):
        L_family(3)


# Each identity the walks are checked against at every size, shown failing:
# a wrong value on the identity's other side, or a wrong walk above the
# sizes the recurrences check.


def test_walk_check_catches_a_wrong_factorial(monkeypatch, fresh_tables):
    monkeypatch.setattr(enumpoly, "_FACTORIALS", [1, 1, 2, 6, 25])
    assert L_family(3)[0].evaluate(1, 1) == 6
    with pytest.raises(InternalMismatch, match=r"^L_4\(1,1\) != 4!$"):
        L_family(4)


def test_walk_check_catches_a_wrong_cycle_polynomial(monkeypatch, fresh_tables):
    c_poly(4)
    C = enumpoly._C[:5]
    C[4] = C[4] + BivariatePoly.x()
    monkeypatch.setattr(enumpoly, "_C", C)
    assert L_family(3)[1].to_string() == "x^2*y + x*y^2 + x*y"
    with pytest.raises(InternalMismatch, match=r"^L'_4\(x,1\) != C_4\(x\)$"):
        L_family(4)


def test_walk_check_catches_a_wrong_stirling_poly(monkeypatch, fresh_tables):
    L_family(4)  # C_4 is built from the true A_4
    A = enumpoly._A[:5]
    A[4] = A[4] + BivariatePoly.x()
    monkeypatch.setattr(enumpoly, "_A", A)
    assert joint_perm_poly(3).evaluate(1, 1) == 6
    with pytest.raises(InternalMismatch, match=r"^joint_4\(x,1\) != A_4\(x\)$"):
        joint_perm_poly(4)


def test_walk_check_catches_a_wrong_double_factorial(monkeypatch, fresh_tables):
    i_count(3)  # i_3 is built from the true 5!!
    monkeypatch.setattr(enumpoly, "_DOUBLE_FACTORIALS", [1, 1, 3, 16])
    assert M_family(2)[0].evaluate(1, 1) == 3
    with pytest.raises(InternalMismatch, match=r"^M_3\(1\) != \(2\*3-1\)!!$"):
        M_family(3)


def test_walk_check_catches_a_wrong_i_count(monkeypatch, fresh_tables):
    monkeypatch.setattr(enumpoly, "_I_COUNTS", [0, 1, 2, 11])
    assert M_family(2)[1].evaluate(1, 1) == 2
    with pytest.raises(InternalMismatch, match=r"^M'_3\(1\) != i_3$"):
        M_family(3)


def test_walk_check_catches_an_asymmetric_L_prime(monkeypatch, fresh_tables):
    # a peak landing above height 0 weighing x*y keeps L_n(1,1) = n! and
    # L'_n(x,1) = C_n(x); only the symmetry of L'_n goes
    monkeypatch.setattr(enumpoly, "_RECURRENCE_LIMIT", 0)
    monkeypatch.setattr(enumpoly, "_L_RULE", ((1, 1), (1, 0)))
    assert L_family(1)[1].to_string() == "x"
    with pytest.raises(InternalMismatch, match=r"^L'_2 is not symmetric in x and y$"):
        L_family(2)


def test_walk_checks_catch_slots_too_narrow(monkeypatch, fresh_tables):
    # one-byte slots hold every coefficient up to n = 6 (6! = 720, spread
    # over several terms); at n = 7 some state overflows into its
    # neighbour slot, which the identities see above the recurrence sizes
    monkeypatch.setattr(enumpoly, "_RECURRENCE_LIMIT", 0)
    def one_byte(N, rule):
        return enumpoly._Packing(255, N + 1, rule)

    monkeypatch.setattr(enumpoly, "_path_packing", one_byte)
    assert L_family(6)[0].evaluate(1, 1) == 720
    with pytest.raises(InternalMismatch, match=r"^L_7\(1,1\) != 7!$"):
        L_family(7)


def test_joint_checks_catch_a_wrong_peak_at_height_0(monkeypatch, fresh_tables):
    # x for a peak landing at height 0 where the joint walk asks for x*y:
    # the block recurrence sees it, and above the recurrence sizes the
    # symmetry check does (joint_n(x,1) = A_n(x) still holds)
    monkeypatch.setattr(enumpoly, "_JOINT_RULE", enumpoly._L_RULE)
    with pytest.raises(InternalMismatch, match=r"^joint recurrence vs path sum at n=1$"):
        joint_perm_poly(1)
    monkeypatch.setattr(enumpoly, "_RECURRENCE_LIMIT", 0)
    with pytest.raises(InternalMismatch, match=r"^joint_1 is not symmetric in x and y$"):
        joint_perm_poly(1)


def test_concurrent_walks_store_aligned_entries(fresh_tables):
    sizes = [12, 3, 9, 1, 7, 12, 5, 10]
    expected = [joint_perm_poly(n) for n in range(1, 13)]
    fresh_tables()
    start = threading.Barrier(len(sizes))
    results, errors = [], []

    def grow(n):
        try:
            start.wait(timeout=10)
            results.append((n, joint_perm_poly(n)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(n,)) for n in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(results, key=lambda r: r[0]) == [(n, expected[n - 1]) for n in sorted(sizes)]
    assert enumpoly._JOINT[1:] == expected
    assert [p.evaluate(1, 1) for p in enumpoly._JOINT[1:]] == [
        math.factorial(n) for n in range(1, 13)
    ]

# --- assembled series ----------------------------------------------------------------


def test_joint_perm_poly_small():
    assert joint_perm_poly(1).to_string() == "x*y"
    assert joint_perm_poly(2).to_string() == "x^2*y^2 + x*y"
    assert (
        joint_perm_poly(3).to_string()
        == "x^3*y^3 + 2*x^2*y^2 + x^2*y + x*y^2 + x*y"
    )
    with pytest.raises(ValueError):
        joint_perm_poly(0)


def test_joint_perm_poly_properties():
    for n in range(1, 9):
        J = joint_perm_poly(n)
        assert J.swap_xy() == J
        assert J.evaluate(1, 1) == math.factorial(n)
        # x-marginal is the Stirling polynomial
        marg = {}
        for px, py, v in J.terms():
            marg[px] = marg.get(px, 0) + v
        assert marg == {
            k: stirling_number(n, k) for k in range(1, n + 1) if stirling_number(n, k)
        }


def test_transitive_probability():
    assert transitive_probability(1) == Fraction(1)
    assert transitive_probability(3) == Fraction(13, 18)
    assert transitive_probability(4) == Fraction(71, 96)
    with pytest.raises(ValueError):
        transitive_probability(0)


def test_arques_beraud_residual():
    residual = arques_beraud_check(6)
    assert residual.order == 6
    assert residual.is_zero
    with pytest.raises(ValueError):
        arques_beraud_check(-1)
