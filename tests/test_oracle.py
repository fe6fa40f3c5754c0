import math
import os
import select
import signal
import threading
import time
import traceback

import pytest

from permaps import enumpoly, oracle
from permaps.dyck import count_labelings, delta_inverse, is_primitive
from permaps.enumpoly import (
    BivariatePoly,
    L_family,
    M_family,
    SeriesInZ,
    arques_beraud_check,
    c_count,
    c_poly,
    i_count,
    joint_perm_poly,
    transitive_probability,
)
from permaps.errors import InternalMismatch, LimitExceeded
from permaps.hypermap import canonical_rooted_form, psi_inverse
from permaps.maps import RootedMap, psi_prime, psi_prime_inverse
from permaps.oracle import (
    FAULTS,
    count_transitive_pairs,
    enum_fpf_involutions,
    enum_permutations,
    hypermap_census,
    joint_distribution,
    verify_suite,
)
from permaps.perm import (
    Permutation,
    fundamental_transform,
    fundamental_transform_inverse,
    identity,
)
from records import check_record
from reference import reference_enum_fpf_involutions


def test_enum_permutations():
    assert [sum(1 for _ in enum_permutations(n)) for n in (1, 2, 3, 4)] == [1, 2, 6, 24]
    lex = [p.images for p in enum_permutations(3)]
    assert lex == sorted(lex)
    assert lex[0] == (1, 2, 3) and lex[-1] == (3, 2, 1)
    with pytest.raises(ValueError):
        next(enum_permutations(0))


def test_enum_fpf_involutions():
    assert [sum(1 for _ in enum_fpf_involutions(n)) for n in (2, 4, 6, 8)] == [1, 3, 15, 105]
    for t in enum_fpf_involutions(6):
        assert all(t(t(i)) == i and t(i) != i for i in range(1, 7))
    assert next(enum_fpf_involutions(4)) == Permutation((2, 1, 4, 3))
    with pytest.raises(ValueError):
        next(enum_fpf_involutions(5))
    with pytest.raises(ValueError):
        next(enum_fpf_involutions(0))


def test_enum_fpf_involutions_matches_reference():
    for n in range(2, 13, 2):
        assert [t.images for t in enum_fpf_involutions(n)] == [
            t.images for t in reference_enum_fpf_involutions(n)
        ]


def test_enum_fpf_involutions_does_not_recurse():
    # the recursive form needs a frame per pair, past the default limit here
    assert next(enum_fpf_involutions(6000)).images[:4] == (2, 1, 4, 3)


def test_joint_distribution_marginals():
    t4 = joint_distribution(4)
    assert t4.total() == 24
    # the 13 indecomposable permutations of S_4, by either statistic
    assert t4.project(("lr_maxima",), indecomposable_only=True) == {1: 6, 2: 6, 3: 1}
    assert t4.project(("rl_minima",), indecomposable_only=True) == {1: 6, 2: 6, 3: 1}
    assert t4.project(("cycles",), indecomposable_only=True) == {1: 6, 2: 6, 3: 1}
    t3 = joint_distribution(3)
    assert t3.project(("cycles",)) == {1: 2, 2: 3, 3: 1}
    assert t3.project(("indecomposable",)) == {True: 3, False: 3}
    pair = t3.project(("cycles", "lr_maxima"))
    assert pair[(1, 1)] == 1  # 3,1,2 alone
    assert sum(pair.values()) == 6
    text = "DistributionTable(n=2, entries={(2, 2, 2, False): 1, (1, 1, 1, True): 1})"
    check_record(joint_distribution(2), text, frozen=False)
    empty = oracle.DistributionTable(n=2)
    check_record(empty, "DistributionTable(n=2, entries={})", frozen=False)
    assert empty.entries is not oracle.DistributionTable(2).entries  # one dict each


def test_joint_distribution_symmetry():
    for n in range(1, 6):
        t = joint_distribution(n)
        assert t.total() == math.factorial(n)
        by_cyc = t.project(("cycles",))
        assert by_cyc == t.project(("lr_maxima",))
        assert by_cyc == t.project(("rl_minima",))


def test_joint_distribution_limit():
    with pytest.raises(LimitExceeded):
        joint_distribution(3, limit=2)
    assert joint_distribution(3, limit=3).total() == 6


def test_count_transitive_pairs():
    assert count_transitive_pairs(1) == 1
    assert count_transitive_pairs(2) == 3
    assert count_transitive_pairs(3) == 26
    assert count_transitive_pairs(4) == 426
    with pytest.raises(LimitExceeded):
        count_transitive_pairs(6)
    with pytest.raises(ValueError):
        count_transitive_pairs(0)


def test_hypermap_census():
    assert hypermap_census(1) == (1, 1)
    assert hypermap_census(2) == (3, 3)
    assert hypermap_census(3) == (26, 13)
    assert hypermap_census(4) == (426, 71)
    with pytest.raises(LimitExceeded):
        hypermap_census(6)
    with pytest.raises(ValueError):
        hypermap_census(0)


def test_verify_suite_passes_small():
    report = verify_suite(max_n=4, pair_max_n=3, fpf_max_size=6)
    assert report.passed
    names = [r.check for r in report.results]
    assert names == [
        "indecomposable-count",
        "stirling-triangle",
        "fundamental-transform",
        "interval-split-round-trip",
        "statistic-swap-involution",
        "hypermap-census",
        "transitive-probability",
        "path-round-trip",
        "labeling-counts",
        "path-polynomials",
        "joint-polynomial",
        "map-counts",
        "map-round-trip",
        "map-functional-equation",
    ]
    assert all(r.witness is None for r in report.results)


def test_verify_suite_deterministic():
    a = verify_suite(max_n=3, pair_max_n=3, fpf_max_size=4)
    b = verify_suite(max_n=3, pair_max_n=3, fpf_max_size=4)
    assert a.to_json_obj() == b.to_json_obj()
    assert a.passed and b.passed


def test_verify_suite_fault_injection():
    assert FAULTS == ("skip-canonicalization",)
    report = verify_suite(max_n=3, pair_max_n=3, fault="skip-canonicalization")
    assert not report.passed
    failed = [r for r in report.results if r.status == "fail"]
    assert [r.check for r in failed] == ["hypermap-census"]
    # smallest counterexample: the first transitive pair on 3 darts
    assert failed[0].witness == {
        "n": 3,
        "sigma": "1,2,3",
        "alpha": "2,3,1",
        "relabel": "2,1,3",
        "reason": "canonical form depends on the labeling",
    }


@pytest.mark.parametrize("fault, scanned", [(None, []), ("skip-canonicalization", [3])])
def test_transitive_probability_reuses_census_counts(monkeypatch, fault, scanned):
    # the probability check scans only the sizes the census did not finish
    # (under the fault, the census stops at its n = 3 witness); one worker,
    # since a forked worker's calls are not counted in this process
    monkeypatch.setattr(oracle, "_workers", lambda: 1)
    calls = []
    real = oracle.count_transitive_pairs

    def counting(n, limit=5):
        calls.append(n)
        return real(n, limit)

    monkeypatch.setattr(oracle, "count_transitive_pairs", counting)
    report = verify_suite(max_n=3, pair_max_n=3, fpf_max_size=4, fault=fault)
    assert calls == scanned
    assert [r.check for r in report.results if r.status == "fail"] == (
        ["hypermap-census"] if fault else []
    )


def test_stirling_triangle_checks_C_n_at_one(monkeypatch):
    # C_n(1) = c_n ties the polynomial table to the scalar one; a wrong
    # C_n seen only by the check shows as its own witness
    monkeypatch.setattr(oracle, "c_poly", lambda n: c_poly(n) + BivariatePoly.monomial(n, 0))
    report = verify_suite(max_n=3, pair_max_n=2, fpf_max_size=4)
    assert [(r.check, r.witness) for r in report.results if r.status == "fail"] == [
        ("stirling-triangle", {"n": 2, "poly_at_1": 2, "count": 1})
    ]


def test_verify_suite_json_and_text():
    report = verify_suite(max_n=2, pair_max_n=2, fpf_max_size=4)
    obj = report.to_json_obj()
    assert isinstance(obj, list) and len(obj) == 14
    for entry in obj:
        assert set(entry) == {"check", "status"}  # witness omitted on pass
        assert entry["status"] == "pass"
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0] == "PASS indecomposable-count"
    assert lines[-1] == "all checks passed"
    passed = oracle.CheckResult(check="c", status="pass")
    check_record(passed, "CheckResult(check='c', status='pass', witness=None)", frozen=False)
    failed = oracle.CheckResult("c", "fail", {"n": 1})
    check_record(failed, "CheckResult(check='c', status='fail', witness={'n': 1})", frozen=False)
    text = "VerifyReport(results=[CheckResult(check='c', status='pass', witness=None)])"
    check_record(oracle.VerifyReport(results=[passed]), text, frozen=False)
    assert report == verify_suite(max_n=2, pair_max_n=2, fpf_max_size=4)

    bad = verify_suite(max_n=3, pair_max_n=3, fault="skip-canonicalization")
    obj = bad.to_json_obj()
    rows = [e for e in obj if e["status"] == "fail"]
    assert rows and set(rows[0]) == {"check", "status", "witness"}
    assert "FAIL hypermap-census" in bad.to_text()
    assert bad.to_text().splitlines()[-1] == "1 check(s) failed"


def test_verify_suite_guards():
    with pytest.raises(ValueError):
        verify_suite(max_n=0)
    with pytest.raises(ValueError):
        verify_suite(max_n=9)
    with pytest.raises(ValueError):
        verify_suite(pair_max_n=6)
    with pytest.raises(ValueError):
        verify_suite(fpf_max_size=7)
    with pytest.raises(ValueError):
        verify_suite(fault="no-such-fault")


def _counting(monkeypatch, calls, name):
    real = getattr(oracle, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(oracle, name, counted)


def test_verify_suite_examines_every_object(monkeypatch):
    # each check still visits all of its objects: the bijection or test
    # each one runs, counted against the size of what it sweeps, in this
    # process alone
    monkeypatch.setattr(oracle, "_workers", lambda: 1)
    names = ("psi", "delta", "fundamental_transform", "phi_bijection", "psi_prime",
             "canonical_rooted_form", "is_transitive")
    calls = dict.fromkeys(names, 0)
    for name in names:
        _counting(monkeypatch, calls, name)
    assert verify_suite(5, 4, 8).passed
    perms = sum(math.factorial(n) for n in range(1, 6))
    assert calls == {
        "psi": sum(c_count(k) for k in range(2, 7)),
        "delta": perms,
        "fundamental_transform": perms,
        "phi_bijection": 2 * perms,
        "psi_prime": sum(i_count(m) for m in range(2, 5)),
        # the census canonicalizes each transitive pair, and again after
        # the relabel 2,1,3,...,n from n = 3 on
        "canonical_rooted_form": sum(
            (1 + (n >= 3)) * math.factorial(n - 1) * c_count(n + 1) for n in range(1, 5)
        ),
        "is_transitive": sum(math.factorial(n) ** 2 for n in range(1, 5)),
    }
    assert calls["psi"] == 549 and calls["canonical_rooted_form"] == 908


def _rotated_on_3(inverse):
    # a broken inverse: its output is rotated when it starts with 3 at size 3
    def broken(x):
        p = inverse(x)
        if p.images[:1] == (3,) and p.n == 3:
            return Permutation(p.images[1:] + p.images[:1])
        return p

    return broken


def _reversed_on_4_darts(m):
    # a broken psi_prime_inverse: its output is reversed for maps on 4 darts
    t = psi_prime_inverse(m)
    return Permutation(t.images[::-1]) if m.n == 4 else t


def _plus_xy_at_3(n):
    L, Lp = L_family(n)
    return L, (Lp + BivariatePoly.monomial(1, 1) if n == 3 else Lp)


def _reversed_labels(pair):
    # a broken canonical_rooted_form: its relabeling sends i to n + 1 - i
    return canonical_rooted_form(pair)[0], Permutation(tuple(range(pair.n, 0, -1)))


def _joint_plus_xy_at_3(n):
    J = joint_perm_poly(n)
    return J + BivariatePoly.monomial(1, 1) if n == 3 else J


def _joint_plus_x3y_at_3(n):
    # a monomial that no permutation of S_3 has: 3 cycles make it the
    # identity, which has 3 maxima
    J = joint_perm_poly(n)
    return J + BivariatePoly.monomial(3, 1) if n == 3 else J


def _y_times_z(order):
    # a nonzero residual: the series y*z
    return SeriesInZ([BivariatePoly.zero(), BivariatePoly.y()], order)


_EDITS = pytest.mark.parametrize(
    "name, broken, check, witness",
    [
        ("psi_inverse", _rotated_on_3(psi_inverse), "interval-split-round-trip",
         {"size": 3, "theta": "3,1,2", "reason": "round trip"}),
        ("delta_inverse", _rotated_on_3(delta_inverse), "path-round-trip",
         {"n": 3, "perm": "3,1,2", "reason": "round trip"}),
        ("psi_prime_inverse", _reversed_on_4_darts, "map-round-trip",
         {"size": 6, "theta": "3,5,1,6,2,4", "reason": "round trip"}),
        ("L_family", _plus_xy_at_3, "path-polynomials",
         {"n": 3, "cycles": 1, "maxima": 1, "poly": 2, "exhaustive": 1}),
        ("i_count", lambda m: i_count(m) + (m == 2), "map-counts",
         {"size": 4, "indecomposable": 2, "formula": 3}),
        ("fundamental_transform_inverse", _rotated_on_3(fundamental_transform_inverse),
         "fundamental-transform", {"n": 3, "perm": "3,1,2", "reason": "round trip"}),
        ("phi_bijection", lambda p: p, "statistic-swap-involution",
         {"n": 3, "perm": "2,3,1", "reason": "statistic"}),
        ("transitive_probability", lambda n: transitive_probability(n) + (n == 2),
         "transitive-probability", {"n": 2, "brute": "3/4", "formula": "7/4"}),
        ("count_labelings", lambda w, s: count_labelings(w, s) + (w == "aabb"),
         "labeling-counts", {"word": "aabb", "scheme": "delta", "count": 1, "expected": 2}),
        ("joint_perm_poly", _joint_plus_xy_at_3, "joint-polynomial",
         {"n": 3, "cycles": 1, "maxima": 1, "poly": 2, "exhaustive": 1}),
        ("arques_beraud_check", _y_times_z, "map-functional-equation",
         {"order": 1, "coefficient": "y"}),
        ("joint_perm_poly", _joint_plus_x3y_at_3, "joint-polynomial",
         {"n": 3, "cycles": 3, "maxima": 1, "poly": 1, "exhaustive": 0}),
        ("is_primitive", lambda w: not is_primitive(w), "path-round-trip",
         {"n": 1, "perm": "1", "reason": "primitivity"}),
        ("is_fpf_involution", lambda p: False, "map-round-trip",
         {"size": 4, "theta": "3,4,1,2", "reason": "not a pairing"}),
        ("satisfies_lemma1", lambda h: False, "interval-split-round-trip",
         {"size": 2, "theta": "2,1", "reason": "not canonical"}),
        ("phi_bijection", fundamental_transform, "statistic-swap-involution",
         {"n": 3, "perm": "2,3,1", "reason": "not involutive"}),
        # not transitive at size 6 either, but the check stops at size 4
        ("psi_prime", lambda t: RootedMap(identity(t.n - 2), psi_prime(t).alpha), "map-round-trip",
         {"size": 4, "theta": "4,3,2,1", "reason": "vertex count"}),
        ("canonical_rooted_form", _reversed_labels, "hypermap-census",
         {"n": 2, "sigma": "1,2", "alpha": "2,1", "reason": "relabeling moves the root"}),
    ],
)


@_EDITS
def test_edited_checks_still_fail(monkeypatch, name, broken, check, witness):
    # one broken library function fails exactly the check that reads it
    monkeypatch.setattr(oracle, name, broken)
    report = verify_suite(4, 3, 6)
    assert [(r.check, r.witness) for r in report.results if r.status == "fail"] == [
        (check, witness)
    ]


def test_indecomposable_count_fails_on_a_wrong_c_n(monkeypatch):
    # c_n feeds several checks; the count check names the size it is off at
    monkeypatch.setattr(oracle, "c_count", lambda n: c_count(n) + (n == 3))
    failed = {r.check: r.witness for r in verify_suite(4, 3, 6).results if r.status == "fail"}
    assert failed["indecomposable-count"] == {"n": 3, "exhaustive": 3, "formula": 4}


@pytest.fixture
def no_child_left():
    """After the test: no verify worker is left running, and this process
    may run on all of its CPUs again (the workers are pinned to one each)."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if cpus is not None:
        assert os.sched_getaffinity(0) == cpus


@pytest.mark.parametrize("fault", [None, "skip-canonicalization"])
def test_forked_workers_give_the_one_worker_report(monkeypatch, no_child_left, fault):
    # the report is the same whichever process ran which unit
    for max_n in range(1, 5):
        for pair_max_n in range(1, 4):
            for fpf_max_size in (2, 4, 6):
                sizes = (max_n, pair_max_n, fpf_max_size, fault)
                monkeypatch.setattr(oracle, "_workers", lambda: 1)
                serial = verify_suite(*sizes)
                for workers in (2, 3):
                    monkeypatch.setattr(oracle, "_workers", lambda: workers)
                    report = verify_suite(*sizes)
                    assert report == serial and report.to_text() == serial.to_text()


@_EDITS
def test_edited_checks_fail_alike_in_forked_workers(
    monkeypatch, no_child_left, name, broken, check, witness
):
    monkeypatch.setattr(oracle, name, broken)
    monkeypatch.setattr(oracle, "_workers", lambda: 2)
    report = verify_suite(4, 3, 6)
    assert [(r.check, r.witness) for r in report.results if r.status == "fail"] == [
        (check, witness)
    ]


def test_map_functional_equation_residual_of_a_wrong_M_prime(
    monkeypatch, no_child_left, fresh_tables
):
    # one map with 4 edges moved from 3 vertices to 4: M'_5 off by D = y^4 - y^3,
    # so U_4 = M'_5 is off by D and the z^5 term y*U_4(y+1) + U_4*U_0(y+1) by
    # y*D(y+1) + D*(y+1), with U_0 = y, while the z^0..z^3 terms stay zero
    M_family(7)
    M, Mp = enumpoly._M[5]  # fresh_tables' copy, restored after the test
    D = BivariatePoly.monomial(0, 4) - BivariatePoly.monomial(0, 3)
    enumpoly._M[5] = (M, Mp + D)
    residual = arques_beraud_check(6)
    assert all(residual.coefficient(m).is_zero for m in range(4))
    assert residual.coefficient(4) == D
    y_plus_1 = BivariatePoly.y() + BivariatePoly.constant(1)
    assert residual.coefficient(5) == -(BivariatePoly.y() * D.subs_y_plus(1) + D * y_plus_1)
    # the top coefficient is computed, not padded
    assert arques_beraud_check(5) == SeriesInZ([residual.coefficient(m) for m in range(6)], 5)
    for workers in (1, 2):
        monkeypatch.setattr(oracle, "_workers", lambda: workers)
        failed = {r.check: r.witness for r in verify_suite().results if r.status == "fail"}
        assert failed["map-functional-equation"] == {"order": 4, "coefficient": "y^4 - y^3"}


@pytest.fixture
def signal_pipe():
    """A pipe for a process to tell the others it got somewhere; both ends
    are closed after the test."""
    fds = os.pipe()
    yield fds
    for fd in fds:
        os.close(fd)


def _hold_first_claim(monkeypatch, signal_pipe, in_caller):
    # the first read off verify's unit pipe waits, in the caller or else in
    # each worker, until some process writes to the signal pipe (60 s at
    # most), so the other processes claim every unit in the meantime
    caller, held, read = os.getpid(), [], os.read

    def held_read(fd, n):
        if (os.getpid() == caller) == in_caller and not held:
            held.append(select.select([signal_pipe[0]], [], [], 60))
        return read(fd, n)

    monkeypatch.setattr(os, "read", held_read)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_killed_worker_leaves_its_units_to_the_caller(
    monkeypatch, no_child_left, signal_pipe, workers
):
    # c_n kills any process but the caller, as the OOM killer might, while
    # the caller waits to claim: the killed worker reports nothing, and the
    # caller runs its units for the one-worker report
    monkeypatch.setattr(oracle, "_workers", lambda: 1)
    serial = verify_suite(4, 3, 6)
    caller = os.getpid()

    def c_count_or_die(n):
        if os.getpid() != caller:
            os.write(signal_pipe[1], b"k")
            os.kill(os.getpid(), signal.SIGKILL)
        return c_count(n)

    monkeypatch.setattr(oracle, "c_count", c_count_or_die)
    monkeypatch.setattr(oracle, "_workers", lambda: workers)
    _hold_first_claim(monkeypatch, signal_pipe, in_caller=True)
    report = verify_suite(4, 3, 6)
    assert select.select([signal_pipe[0]], [], [], 0)[0]  # a worker was killed
    assert report == serial and report.to_text() == serial.to_text()


@pytest.mark.parametrize("rerun", [False, True], ids=["own", "rerun"])
@pytest.mark.parametrize("workers", [2, 3])
def test_exception_in_a_forked_unit_reaches_the_caller(
    monkeypatch, no_child_left, signal_pipe, workers, rerun
):
    # C_n(x), read by the stirling unit alone, raises wherever it runs.  The
    # workers wait to claim until it has, so the caller meets it in a unit of
    # its own; or, with rerun, the caller waits, a worker meets it and
    # reports nothing, and the caller meets it again running what none did
    def wrong_c_poly(n):
        os.write(signal_pipe[1], b"r")
        raise InternalMismatch("c_3: 4 != 3")

    monkeypatch.setattr(oracle, "c_poly", wrong_c_poly)
    monkeypatch.setattr(oracle, "_workers", lambda: workers)
    _hold_first_claim(monkeypatch, signal_pipe, in_caller=rerun)
    with pytest.raises(InternalMismatch, match=r"^c_3: 4 != 3$") as raised:
        verify_suite(4, 3, 6)
    frames = [frame.name for frame in traceback.extract_tb(raised.tb)]
    assert frames[-1] == "wrong_c_poly" and ("claim" in frames) != rerun


def test_exception_in_the_caller_stops_the_workers(monkeypatch, no_child_left):
    # the caller raises at once while every child is still busy: verify
    # returns without waiting for them, and leaves none running
    caller = os.getpid()

    def c_count_or_stall(n):
        if os.getpid() == caller:
            raise InternalMismatch("c_3: 4 != 3")
        time.sleep(60)

    monkeypatch.setattr(oracle, "c_count", c_count_or_stall)
    monkeypatch.setattr(oracle, "_workers", lambda: 3)
    start = time.perf_counter()
    with pytest.raises(InternalMismatch, match=r"^c_3: 4 != 3$"):
        verify_suite(4, 3, 6)
    assert time.perf_counter() - start < 30


def test_workers_follow_cpus_fork_and_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert oracle._workers() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert oracle._workers() == len(oracle._UNITS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert oracle._workers() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert oracle._workers() == 1  # a forked child would inherit the thread's locks
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and oracle._workers() == 2
    monkeypatch.delattr(os, "fork", raising=False)
    assert oracle._workers() == 1


def test_units_cover_every_check_once_in_report_order():
    indices = [i for unit in oracle._UNITS for i in unit]
    assert sorted(indices) == list(range(len(oracle._CHECKS)))
    assert all(list(unit) == sorted(unit) for unit in oracle._UNITS)
    assert all(oracle._UNITS)  # a skipped unit number would leave an empty unit
    assert sorted({unit for *_, unit in oracle._CHECKS}) == list(range(len(oracle._UNITS)))
    names = [[oracle._CHECKS[i][0] for i in unit] for unit in oracle._UNITS]
    assert ["hypermap-census", "transitive-probability"] in names
