"""The benchmark's side of the process boundary: it runs the program.

    child.py cold [--trace] [--memory] -- ARGV...
        Run one CLI command in this fresh interpreter through
        permaps.cli.dispatch (the package has no ``__main__``), with the
        command's output on stdout.  The last stderr line is a marker plus
        JSON: exit code, peak RSS, import time and, when traced, spans.
    child.py serve
        Answer bijection round trips, one JSON request per stdin line and
        one JSON reply per stdout line, in one warm process.

Traced runs time calls into each module from here: the calls this file
makes, the calls permaps.cli makes into other modules (wrapped in the
cli namespace), and probes, which call the same public functions on the
op's own inputs to expose work hidden inside dispatch or verify_suite.
Probes that repeat work are flagged so the overhead figure excludes them.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import sys
import time
import tracemalloc
from contextlib import contextmanager
from functools import wraps


MARK = "#permaps-bench "
PATH_SUM_LIMIT = 10  # L_family/M_family cross-check against all Dyck paths up to here


def maxrss_kb() -> int:
    """Peak RSS of this process image.  ru_maxrss alone would also count
    the parent's memory that a spawned child holds until it execs."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans kept in memory: name, start, end, parent index, probe flag,
    size, error, and (with memory on) the tracemalloc peak above entry."""

    def __init__(self, enabled: bool, memory: bool = False) -> None:
        self.enabled = enabled
        self.memory = memory
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.busy = 0.0  # time in non-probe top-level calls: the op's latency

    @contextmanager
    def span(self, name: str, n=None, probe: bool = False):
        top = not self.stack
        rec = None
        if self.enabled:
            parent = self.stack[-1] if self.stack else None
            rec = {"name": name, "parent": parent["i"] if parent else None,
                   "probe": probe or bool(parent and parent["probe"]), "n": n,
                   "error": None, "i": len(self.spans)}
            if self.memory:
                cur, peak = tracemalloc.get_traced_memory()
                if parent:
                    parent["_peak"] = max(parent["_peak"], peak)
                tracemalloc.reset_peak()
                rec["_base"] = rec["_peak"] = cur
            self.spans.append(rec)
            self.stack.append(rec)
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            if rec is not None:
                rec["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            if top and not probe:
                self.busy += end - start
            if rec is not None:
                rec["start"], rec["end"] = start, end
                self.stack.pop()
                if self.memory:
                    rec["_peak"] = max(rec["_peak"], tracemalloc.get_traced_memory()[1])
                    if self.stack:
                        self.stack[-1]["_peak"] = max(self.stack[-1]["_peak"], rec["_peak"])
                    tracemalloc.reset_peak()
                    rec["peak_kb"] = (rec.pop("_peak") - rec.pop("_base")) / 1024

    def call(self, name: str, fn, *args, n=None, probe: bool = False):
        with self.span(name, n=n, probe=probe):
            return fn(*args)

    def wrap(self, fn, name_of):
        """fn with a span around every call, named by name_of(first arg)."""

        @wraps(fn)
        def traced(*args, **kwargs):
            n = args[0] if args else None
            with self.span(name_of(n), n=n):
                return fn(*args, **kwargs)

        return traced


# --- cold commands ---------------------------------------------------------------


def _path_family(tr: Tracer, family: str, size: int) -> None:
    """L_family / M_family in dependency order, then product and shift probes."""
    from permaps import enumpoly
    from permaps.dyck import enum_dyck_paths

    fn = getattr(enumpoly, f"{family}_family")
    for k in range(1, min(size, PATH_SUM_LIMIT) + 1):
        tr.call("dyck.enum_dyck_paths", lambda: sum(1 for _ in enum_dyck_paths(k)), n=k, probe=True)
    for k in range(1, size + 1):
        tr.call(_span_name(f"{family}_family", k), fn, k, n=k)
    if size >= 2:
        prev = fn(size - 1)[0]
        tr.call("enumpoly.BivariatePoly.subs_y_plus", prev.subs_y_plus, 1, n=size, probe=True)
        for p in sorted({1 + (size - 2) * j // 3 for j in range(4)}):
            a, b = fn(p)[1], fn(size - p)[0]
            pairs = len(a.terms()) * len(b.terms())
            tr.call("enumpoly.BivariatePoly.__mul__", a.__mul__, b, n=pairs, probe=True)


def _cold_probes(tr: Tracer, argv: list[str]) -> None:
    """Fill the lru caches in dependency order before dispatch, so the
    traced spans split the command's work instead of repeating it."""
    from permaps import enumpoly, maps

    words, size = tuple(argv[:2]), int(argv[3])
    if words in (("poly", "L"), ("poly", "Lprime")):
        _path_family(tr, "L", size)
    elif words in (("poly", "M"), ("poly", "Mprime")):
        _path_family(tr, "M", size)
    elif words == ("table", "joint"):
        _path_family(tr, "L", size)
        for k in range(1, size + 1):
            tr.call("enumpoly.joint_perm_poly", enumpoly.joint_perm_poly, k, n=k)
        order = max(1, size // 2)
        coeffs = [enumpoly.BivariatePoly.zero(), enumpoly.BivariatePoly.monomial(1, 1)]
        coeffs += [enumpoly.L_family(p)[1] for p in range(2, order + 1)]
        series = enumpoly.SeriesInZ(coeffs, order)
        tr.call("enumpoly.SeriesInZ.inverse_one_minus", series.inverse_one_minus, n=order, probe=True)
    elif words == ("poly", "A"):
        tr.call("enumpoly.stirling_poly", enumpoly.stirling_poly, size, n=size)
    elif words == ("poly", "C"):
        tr.call("enumpoly.stirling_poly", enumpoly.stirling_poly, size, n=size)
        for k in range(1, size + 1):
            tr.call("enumpoly.c_poly", enumpoly.c_poly, k, n=k)
    elif words == ("table", "stirling-indec"):
        tr.call("enumpoly.stirling_poly", enumpoly.stirling_poly, size, n=size)
        for k in range(2, size + 1):
            tr.call("enumpoly.c_count_by_cycles", enumpoly.c_count_by_cycles, k, 1, n=k)
    elif words == ("count", "stirling-indec"):
        tr.call("enumpoly.stirling_poly", enumpoly.stirling_poly, size, n=size)
        tr.call("enumpoly.c_count_by_cycles", enumpoly.c_count_by_cycles, size, int(argv[5]), n=size)
    elif words == ("count", "indecomposable"):
        tr.call("enumpoly.c_count", enumpoly.c_count, size, n=size)
    elif words == ("count", "maps"):
        tr.call("maps.map_count", maps.map_count, size, n=size)
    elif words == ("prob", "transitive"):
        tr.call("enumpoly.c_count", enumpoly.c_count, size + 1, n=size + 1)
        tr.call("enumpoly.transitive_probability", enumpoly.transitive_probability, size, n=size)


def _verify_probes(tr: Tracer, argv: list[str], seed: int) -> None:
    """Repeat, at the op's own sizes, the work verify_suite hides."""
    from permaps import dyck, hypermap, maps, oracle, perm
    from workloads import random_indecomposable

    opts = dict(zip(argv[1::2], argv[2::2]))
    max_n, pair_n, fpf = (int(opts[k]) for k in ("--max-n", "--pair-max-n", "--fpf-max-size"))
    rng = random.Random(seed)
    every = tr.call("perm.Permutation", lambda: list(oracle.enum_permutations(max_n)), n=max_n, probe=True)
    tr.spans[-1]["count"] = len(every)
    for p in rng.sample(every, min(len(every), 200)):
        q = rng.choice(every)
        for name in ("cycles", "lr_maxima", "is_indecomposable", "fundamental_transform"):
            tr.call(f"perm.{name}", getattr(perm, name), p, n=max_n, probe=True)
        tr.call("perm.fundamental_transform_inverse", perm.fundamental_transform_inverse, p, n=max_n, probe=True)
        tr.call("perm.conjugate", perm.conjugate, p, q, n=max_n, probe=True)
        path = tr.call("dyck.delta", dyck.delta, p, n=max_n, probe=True)
        tr.call("dyck.delta_inverse", dyck.delta_inverse, path, n=max_n, probe=True)
    for _ in range(200):
        theta = perm.Permutation(random_indecomposable(rng, max_n + 1))
        h = tr.call("hypermap.psi", hypermap.psi, theta, n=max_n + 1, probe=True)
        tr.call("hypermap.is_transitive", hypermap.is_transitive, h, n=max_n, probe=True)
        tr.call("hypermap.canonical_rooted_form", hypermap.canonical_rooted_form, h, n=max_n, probe=True)
        tr.call("hypermap.psi_inverse", hypermap.psi_inverse, h, n=max_n, probe=True)
        tr.call("hypermap.phi_bijection", hypermap.phi_bijection, theta, n=max_n + 1, probe=True)
    pairings = tr.call("oracle.enum_fpf_involutions", lambda: list(oracle.enum_fpf_involutions(fpf)), n=fpf, probe=True)
    for theta in [t for t in pairings if perm.is_indecomposable(t)][:200]:
        m = tr.call("maps.psi_prime", maps.psi_prime, theta, n=fpf, probe=True)
        tr.call("maps.psi_prime_inverse", maps.psi_prime_inverse, m, n=fpf, probe=True)
    tr.call("oracle.joint_distribution", oracle.joint_distribution, max_n, n=max_n, probe=True)
    tr.call("oracle.count_transitive_pairs", oracle.count_transitive_pairs, pair_n, pair_n, n=pair_n, probe=True)
    tr.call("oracle.hypermap_census", oracle.hypermap_census, pair_n, pair_n, n=pair_n, probe=True)


CLI_CALLS = {  # names permaps.cli imports from other modules, by owning layer
    "L_family": "enumpoly", "M_family": "enumpoly", "c_count": "enumpoly",
    "c_count_by_cycles": "enumpoly", "c_poly": "enumpoly", "joint_perm_poly": "enumpoly",
    "stirling_poly": "enumpoly", "transitive_probability": "enumpoly",
    "map_count": "maps", "verify_suite": "oracle",
}


def _span_name(name: str, n) -> str:
    if name in ("L_family", "M_family"):
        part = "checked" if isinstance(n, int) and n <= PATH_SUM_LIMIT else "recurrence"
        return f"enumpoly.{name}.{part}"
    return f"{CLI_CALLS[name]}.{name}"


def cold(argv: list[str], trace: bool, memory: bool, op_id: int) -> int:
    if memory:
        tracemalloc.start()
    tr = Tracer(trace, memory)
    start = time.perf_counter()
    with tr.span("permaps.import"):
        import permaps
        import permaps.cli as cli
    import_s = time.perf_counter() - start
    if trace:
        for name in CLI_CALLS:
            fn = getattr(cli, name, None)
            if fn is not None:
                setattr(cli, name, tr.wrap(fn, lambda n, name=name: _span_name(name, n)))
        if argv[0] != "verify":
            _cold_probes(tr, argv)
    with tr.span("cli.dispatch", n=len(argv)):
        code = cli.dispatch(argv)
    sys.stdout.flush()
    if trace and argv[0] == "verify":
        _verify_probes(tr, argv, op_id)
    trailer = {"code": code, "maxrss_kb": maxrss_kb(), "import_s": import_s}
    if trace:
        trailer["spans"] = tr.spans
        trailer["cache"] = _cache_info(permaps.enumpoly)
    sys.stderr.write("\n" + MARK + json.dumps(trailer) + "\n")
    return code


def _cache_info(module) -> dict:
    """Hits and misses of the public lru-cached functions; a function
    without cache_info is reported as absent by leaving it out."""
    out = {}
    for name in ("stirling_poly", "c_poly", "L_family", "M_family", "joint_perm_poly"):
        info = getattr(getattr(module, name, None), "cache_info", None)
        if info is not None:
            ci = info()
            out[name] = [ci.hits, ci.misses]
    return out


# --- warm bijection server ---------------------------------------------------------


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded its time limit")


def _round_trip(tr: Tracer, op: dict) -> dict:
    """One round trip, timed call by call; the relabeling is done here."""
    from check import conjugate
    from permaps import dyck, hypermap, maps, perm
    from permaps.perm import Permutation

    family, images = op["kind"], tuple(op["input"])
    n = len(images)
    p = tr.call("perm.Permutation", Permutation, images, n=n)
    if family == "delta":
        path = tr.call("dyck.delta", dyck.delta, p, n=n)
        back = tr.call("dyck.delta_inverse", dyck.delta_inverse, path, n=n)
        result = {"path": list(path.word)}
    elif family in ("phi", "fft"):
        fwd, inv = (
            (hypermap.phi_bijection, hypermap.phi_bijection) if family == "phi"
            else (perm.fundamental_transform, perm.fundamental_transform_inverse)
        )
        prefix = "hypermap" if family == "phi" else "perm"
        mid = tr.call(f"{prefix}.{fwd.__name__}", fwd, p, n=n)
        back = tr.call(f"{prefix}.{inv.__name__}", inv, mid, n=n)
        result = {"mid": list(mid.images)}
    else:
        fwd, inv, cls = (
            (hypermap.psi, hypermap.psi_inverse, hypermap.Hypermap) if family == "omr"
            else (maps.psi_prime, maps.psi_prime_inverse, maps.RootedMap)
        )
        layer = "hypermap" if family == "omr" else "maps"
        h = tr.call(f"{layer}.{fwd.__name__}", fwd, p, n=n)
        sigma, alpha = h.sigma.images, h.alpha.images
        relabel = tuple(op["relabel"])
        s2, a2 = conjugate(sigma, relabel), conjugate(alpha, relabel)
        moved = tr.call(f"{layer}.{cls.__name__}", lambda: cls(Permutation(s2), Permutation(a2)), n=len(s2))
        back = tr.call(f"{layer}.{inv.__name__}", inv, moved, n=len(s2))
        result = {"sigma": list(sigma), "alpha": list(alpha)}
        if tr.enabled:
            tr.call("hypermap.canonical_rooted_form", hypermap.canonical_rooted_form, moved, n=len(s2), probe=True)
            tr.call("hypermap.is_transitive", hypermap.is_transitive, moved, n=len(s2), probe=True)
            tr.call("perm.conjugate", perm.conjugate, h.sigma, Permutation(relabel), n=len(s2), probe=True)
    if tr.enabled:
        for name in ("cycles", "lr_maxima", "is_indecomposable"):
            tr.call(f"perm.{name}", getattr(perm, name), p, n=n, probe=True)
        if family != "fft":
            t = tr.call("perm.fundamental_transform", perm.fundamental_transform, p, n=n, probe=True)
            tr.call("perm.fundamental_transform_inverse", perm.fundamental_transform_inverse, t, n=n, probe=True)
    result["back"] = list(back.images)
    return result


def serve() -> int:
    start = time.perf_counter()
    import permaps  # noqa: F401 - the import is what is timed

    ready = {"ready": True, "import_s": time.perf_counter() - start}
    print(json.dumps(ready), flush=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        op = json.loads(line)
        if op["kind"] == "exit":
            print(json.dumps({"maxrss_kb": maxrss_kb()}), flush=True)
            return 0
        if op.get("memory"):
            tracemalloc.start()
        tr = Tracer(op.get("trace", False), op.get("memory", False))
        reply = {"id": op["id"]}
        signal.setitimer(signal.ITIMER_REAL, op["timeout"])
        try:
            reply["result"] = _round_trip(tr, op)
        except Exception as exc:  # the op fails; the server keeps serving
            reply["error"] = f"{type(exc).__name__}: {exc}"[:300]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if op.get("memory"):
                tracemalloc.stop()
        reply["latency"] = tr.busy
        if tr.enabled:
            reply["spans"] = tr.spans
        print(json.dumps(reply), flush=True)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["serve"]:
        return serve()
    if argv[:1] == ["cold"] and "--" in argv:
        sep = argv.index("--")
        flags = argv[1:sep]
        op_id = int(flags[flags.index("--op") + 1]) if "--op" in flags else 0
        return cold(argv[sep + 1:], "--trace" in flags, "--memory" in flags, op_id)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
