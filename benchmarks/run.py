"""permaps benchmark: seeded workloads through the public API, every
output checked, end-to-end metrics by name with their units.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --all [--seed N] [--seconds S]

Workloads (see workloads.py for the op mix):
  poly-cold          polynomial, table, count and probability commands, each
                     in a fresh interpreter, one at a time
  bijection-batch    round trips through psi, delta, phi, psi_prime and the
                     fundamental transform in one warm server process
  verify-exhaustive  cold ``verify`` commands, some with an injected fault

Load is a closed loop with one client: the next op starts when the last
one ends.  A run executes its fixed op list in whole passes until
--seconds is used up (at least one pass).  The op list is sized from
--seconds so that one pass takes most of it at the commit that defined
the benchmark; a faster program fits more passes.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters importing permaps and building the CLI parser), wall_s
(median pass time), op_p50_ms, op_tail_ms (the highest percentile with
ten ops of one pass beyond it), peak_rss_mb (the serving processes).
Every output is checked from first principles (check.py); a failed op
counts as taking the op timeout.  Failed share and, on bijection-batch,
the per-family elements per second are printed above the result line.
``python3 benchmarks/selftest.py`` shows the checks reject wrong output.

--trace 1 runs half of each kind's ops twice, untraced and traced, plus a small
tracemalloc pass, and prints the per-layer metrics.  Spans and per-layer
rows ({layer, function, n, seconds, peak_kb}) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import check
import workloads
from child import MARK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = str(BENCH / "child.py")

REFERENCE_SECONDS = 40  # --seconds for which the op lists below are sized
SETUP_REPEATS = 11
OP_TIMEOUT_S = 60
MEMORY_BUDGET_S = 2  # untraced seconds of ops to repeat under tracemalloc
HARD_STOP_S = 140  # no op starts after this, so every run ends within 180 s
COLD = ("poly-cold", "verify-exhaustive")
PER_FAMILY = ("omr", "delta", "phi", "psi-prime")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

FUNCTIONS = (
    "cli.dispatch",
    "dyck.enum_dyck_paths", "dyck.delta", "dyck.delta_inverse",
    "enumpoly.stirling_poly", "enumpoly.c_count", "enumpoly.c_count_by_cycles",
    "enumpoly.c_poly", "enumpoly.joint_perm_poly", "enumpoly.transitive_probability",
    "enumpoly.BivariatePoly.__mul__", "enumpoly.BivariatePoly.subs_y_plus",
    "enumpoly.SeriesInZ.inverse_one_minus",
    "hypermap.Hypermap", "hypermap.psi", "hypermap.psi_inverse",
    "hypermap.canonical_rooted_form", "hypermap.phi_bijection", "hypermap.is_transitive",
    "maps.RootedMap", "maps.map_count", "maps.psi_prime", "maps.psi_prime_inverse",
    "perm.Permutation", "perm.cycles", "perm.lr_maxima", "perm.is_indecomposable",
    "perm.conjugate", "perm.fundamental_transform", "perm.fundamental_transform_inverse",
    "oracle.verify_suite", "oracle.joint_distribution", "oracle.count_transitive_pairs",
    "oracle.hypermap_census", "oracle.enum_fpf_involutions",
)
SPLIT_FAMILIES = ("enumpoly.L_family.checked", "enumpoly.L_family.recurrence",
                  "enumpoly.M_family.checked", "enumpoly.M_family.recurrence")
LAYERS = ("perm", "hypermap", "dyck", "maps", "enumpoly", "oracle", "cli")


def per_layer_names() -> list[tuple[str, str]]:
    """Per-layer metrics printed by every traced run, each a count or a sum
    that is measured as zero when a workload never calls the function."""
    out = [("permaps.import_s", "s")]
    for fn in FUNCTIONS:
        out += [(f"{fn}.calls", "count"), (f"{fn}.busy_s", "s")]
    out += [(f"{name}_s", "s") for name in SPLIT_FAMILIES]
    out += [("cli.output_bytes", "B")]
    out += [(f"{layer}.errors", "count") for layer in LAYERS]
    out += [("trace.overhead_share", "1")]
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> list[float]:
    """Fresh interpreters that import permaps and build the CLI parser
    (dispatching the smallest count); wall time of each, spawn to exit."""
    code = "import sys; from permaps.cli import dispatch; sys.exit(dispatch(['count', 'indecomposable', '--n', '1']))"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout != "1\n":
            raise RuntimeError(f"cannot run permaps from {SRC}: {proc.stderr.strip()[-300:]}")
    return times


# --- one op ----------------------------------------------------------------------


def check_cold(ref: check.Reference, argv: list[str], code: int, out: str) -> str | None:
    fmt = argv[argv.index("--format") + 1]
    words = tuple(argv[:2])
    if words[0] == "verify":
        fault = argv[argv.index("--inject-fault") + 1] if "--inject-fault" in argv else None
        return check.check_verify(fault, fmt, code, out)
    if code != 0:
        return f"exit code {code}"
    size = int(argv[3])
    if words[0] == "poly":
        return check.check_poly(ref, words[1], size, fmt, out)
    if words == ("table", "joint"):
        return check.check_table_joint(ref, size, fmt, out)
    if words == ("table", "stirling-indec"):
        return check.check_table_stirling(ref, size, fmt, out)
    if words[0] == "count":
        params = {argv[2][2:]: size}
        if words[1] == "stirling-indec":
            params["k"] = int(argv[5])
        return check.check_count(ref, words[1], params, fmt, out)
    return check.check_prob(ref, size, fmt, out)


class ColdRunner:
    """Each op in a fresh interpreter through child.py; one at a time."""

    def __init__(self, ref: check.Reference, deadline: float) -> None:
        self.ref = ref
        self.deadline = deadline
        self.peak_kb = 0

    def run(self, op: dict, trace: bool = False, memory: bool = False) -> dict:
        flags = ["--op", str(op["id"])] + (["--trace"] if trace or memory else []) + (["--memory"] if memory else [])
        timeout = min(OP_TIMEOUT_S, self.deadline + 20 - time.perf_counter())
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, CHILD, "cold", *flags, "--", *op["argv"]],
                                  env=child_env(), cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"latency": time.perf_counter() - start, "error": f"timeout after {timeout:.0f} s"}
        latency = time.perf_counter() - start
        err, mark, trailer = proc.stderr.rpartition(MARK)
        try:
            info = json.loads(trailer) if mark else None
        except ValueError:
            info = None
        if info is None:
            return {"latency": latency, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
        self.peak_kb = max(self.peak_kb, info["maxrss_kb"])
        res = {"latency": latency, "info": info, "out_bytes": len(proc.stdout.encode())}
        try:
            res["error"] = check_cold(self.ref, op["argv"], info["code"], proc.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            res["error"] = f"unreadable output: {type(exc).__name__}: {exc}"
        if res["error"] and err.strip():
            res["error"] += f" (stderr: {err.strip()[-200:]})"
        return res

    def close(self) -> float:
        return self.peak_kb


class WarmRunner:
    """One warm child.py server answering round trips over pipes."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.peak_kb = 0
        self.import_s = []
        self.proc = None

    def _start(self) -> None:
        self.proc = subprocess.Popen([sys.executable, CHILD, "serve"], env=child_env(), cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = self._read(60)
        if not ready or not ready.get("ready"):
            self._kill()
            raise RuntimeError("bijection server did not start")
        self.import_s.append(ready["import_s"])

    def _read(self, timeout: float):
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.1))
        if not ready:
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def _kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc = None

    def run(self, op: dict, trace: bool = False, memory: bool = False) -> dict:
        if self.proc is None:
            self._start()
        timeout = min(OP_TIMEOUT_S, self.deadline + 20 - time.perf_counter())
        request = dict(op, trace=trace or memory, memory=memory, timeout=timeout)
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self._read(timeout + 5)
        if reply is None:
            self._kill()
            return {"latency": time.perf_counter() - start, "error": "server did not answer"}
        res = {"latency": reply["latency"], "info": reply}
        if "error" in reply:
            res["error"] = reply["error"]
        else:
            res["error"] = check.check_bijection(op["kind"], op["input"], reply["result"])
        return res

    def close(self) -> float:
        if self.proc is not None:
            self.proc.stdin.write(json.dumps({"kind": "exit"}) + "\n")
            self.proc.stdin.flush()
            bye = self._read(30)
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None
            if bye:
                self.peak_kb = max(self.peak_kb, bye["maxrss_kb"])
        return self.peak_kb


# --- passes and metrics ------------------------------------------------------------


def run_op(runner, op: dict, deadline: float, **mode) -> dict:
    if time.perf_counter() > deadline:
        return {"latency": 0.0, "error": "run deadline reached before the op"}
    return runner.run(op, **mode)


def run_passes(runner, ops: list[dict], seconds: float, deadline: float) -> tuple[list, list]:
    """Whole passes over ops until seconds are used up; results and pass times."""
    results, pass_times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results += [(op, run_op(runner, op, deadline)) for op in ops]
        pass_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + pass_times[-1] > seconds or time.perf_counter() > deadline:
            return results, pass_times


def tail_index(per_pass: int, total: int) -> tuple[int, float]:
    """Index into the pooled sorted latencies of the highest percentile that
    leaves ten ops of one pass beyond it, and that percentile."""
    pct = (per_pass - 10) / per_pass
    return max(0, math.ceil(pct * total) - 1), 100 * pct


def end_to_end(workload: str, ops, results, pass_times, setup, peak_kb) -> tuple[dict, list[str]]:
    # a failed op misses any latency limit: it counts as taking the op timeout
    lat = sorted(max(r["latency"], OP_TIMEOUT_S) if r["error"] else r["latency"] for _, r in results)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_times),
        "op_p50_ms": 1000 * statistics.median(lat),
        "peak_rss_mb": peak_kb / 1024,
    }
    failed = sum(1 for _, r in results if r["error"])
    notes = [f"failed_share {failed / len(results):.4f} ({failed}/{len(results)} ops)"]
    if len(ops) >= 20:
        i, pct = tail_index(len(ops), len(lat))
        metrics["op_tail_ms"] = 1000 * lat[i]
        notes.append(f"op_tail_ms is p{pct:.1f} of {len(lat)} ops ({len(ops)} per pass)")
    else:
        notes.append(f"op_tail_ms omitted: {len(ops)} ops per pass, fewer than 20")
    if workload == "bijection-batch":
        for family in PER_FAMILY:
            done = [(len(op["input"]), r["latency"]) for op, r in results
                    if op["kind"] == family and not r["error"]]
            busy = sum(t for _, t in done)
            if busy > 0:
                notes.append(f"elems_per_s.{family} {sum(n for n, _ in done) / busy:.1f} 1/s")
    return metrics, notes


# --- traced run ----------------------------------------------------------------------


def _spans_of(op: dict, res: dict) -> list[dict]:
    spans = res.get("info", {}).get("spans", [])
    for s in spans:
        s["op"] = op["id"]
    return spans


def layer_metrics(traced, untraced, memory, import_s, cold: bool) -> tuple[dict, list[dict], list[dict], list[str]]:
    """Per-layer metrics from the traced pass.  Self time is a span's
    duration less its children's; the overhead compares traced with
    untraced op time over the same ops, less probes that repeat work (a
    cold op's latency includes its probes, a warm op's excludes them)."""
    spans = [s for op, r in traced for s in _spans_of(op, r)]
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[(s["op"], s["parent"])] += s["end"] - s["start"]
    calls, busy, durations = defaultdict(int), defaultdict(float), defaultdict(list)
    rows = defaultdict(list)
    errors = defaultdict(int)
    child_errors = {(s["op"], s["parent"]) for s in spans if s["error"] and s["parent"] is not None}
    for s in spans:
        dur = s["end"] - s["start"]
        name = s["name"]
        calls[name] += 1
        busy[name] += dur - children[(s["op"], s["i"])]
        durations[name].append(dur)
        rows[(name, s["n"])].append(dur)
        if s["error"] and (s["op"], s["i"]) not in child_errors:
            errors[name.split(".")[0]] += 1
    peaks = {}
    for op, r in memory:
        for s in _spans_of(op, r):
            key = (s["name"], s["n"])
            peaks[key] = max(peaks.get(key, 0.0), s.get("peak_kb", 0.0))

    metrics = {"permaps.import_s": statistics.median(import_s)}
    for fn in FUNCTIONS:
        metrics[f"{fn}.calls"] = calls[fn]
        metrics[f"{fn}.busy_s"] = busy[fn]
    for name in SPLIT_FAMILIES:
        metrics[f"{name}_s"] = busy[name]
    metrics["cli.output_bytes"] = sum(r.get("out_bytes", 0) for _, r in traced)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors[layer]
    by_index = {(s["op"], s["i"]): s for s in spans}
    probe_time = sum(s["end"] - s["start"] for s in spans if s["probe"] and cold
                     and not (s["parent"] is not None and by_index[(s["op"], s["parent"])]["probe"]))
    traced_time = sum(r["latency"] for _, r in traced)
    base = sum(r["latency"] for _, r in untraced)
    metrics["trace.overhead_share"] = (traced_time - probe_time - base) / base if base else 0.0

    notes = []
    for fn in FUNCTIONS + SPLIT_FAMILIES:
        p50 = f"{1e6 * statistics.median(durations[fn]):.1f} us" if durations[fn] else "absent"
        notes.append(f"{fn:44s} calls {calls[fn]:7d}  busy {busy[fn]:9.4f} s  p50 {p50}")
    mul = [(s["n"], s["end"] - s["start"]) for s in spans if s["name"] == "enumpoly.BivariatePoly.__mul__"]
    notes.append("enumpoly.BivariatePoly.__mul__.term_pairs_per_s "
                 + (f"{sum(n for n, _ in mul) / sum(t for _, t in mul):.0f}" if mul else "absent"))
    perms = [(s.get("count", 1), s["end"] - s["start"]) for s in spans if s["name"] == "perm.Permutation"]
    notes.append("perm.Permutation.per_s "
                 + (f"{sum(c for c, _ in perms) / sum(t for _, t in perms):.0f}" if perms else "absent"))
    cache = defaultdict(lambda: [0, 0])
    for _, r in traced:
        for fn, (hits, misses) in r.get("info", {}).get("cache", {}).items():
            cache[fn][0] += hits
            cache[fn][1] += misses
    for fn in ("stirling_poly", "c_poly", "L_family", "M_family", "joint_perm_poly"):
        hits, misses = cache.get(fn, (0, 0))
        ratio = f"{hits / (hits + misses):.4f}" if hits + misses else "absent"
        notes.append(f"enumpoly.{fn}.cache_hit_ratio {ratio}")

    table = []
    for (name, n), durs in sorted(rows.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        table.append({"layer": name.split(".")[0], "function": name, "n": n,
                      "calls": len(durs), "seconds": statistics.median(durs),
                      "peak_kb": peaks.get((name, n))})
    return metrics, spans, table, notes


def _sizes(op: dict) -> tuple[int, ...]:
    return (len(op["input"]),) if "input" in op else tuple(int(a) for a in op["argv"] if a.isdigit())


def traced_run(runner, ops: list[dict], deadline: float):
    # half of each kind's ops, largest first, kept in run order
    kinds = defaultdict(list)
    for op in ops:
        kinds[op["kind"]].append(op)
    subset = sorted((op for group in kinds.values() for op in sorted(group, key=_sizes, reverse=True)[::2]),
                    key=lambda op: op["id"])
    untraced = [(op, run_op(runner, op, deadline)) for op in subset]
    traced = [(op, run_op(runner, op, deadline, trace=True)) for op in subset]
    # tracemalloc slows Python code about fivefold: take peaks on the
    # cheapest op of each kind, cheapest first, within MEMORY_BUDGET_S
    cheapest = {}
    for op, res in untraced:
        if op["kind"] not in cheapest or res["latency"] < cheapest[op["kind"]][1]:
            cheapest[op["kind"]] = (op, res["latency"])
    memory, spent = [], 0.0
    for op, latency in sorted(cheapest.values(), key=lambda c: c[1]):
        spent += latency
        if spent > MEMORY_BUDGET_S:
            break
        memory.append((op, run_op(runner, op, deadline, memory=True)))
    return untraced, traced, memory


# --- main ----------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    deadline = start + HARD_STOP_S
    ops = workloads.generate(workload, seed, scale=seconds / REFERENCE_SECONDS)
    lines = [f"workload {workload} seed {seed}: {len(ops)} ops, digest sha256:{workloads.digest(ops)}"]
    ref = check.Reference()
    if workload == "poly-cold":
        ref.grow(66)
    setup = measure_setup()
    runner = ColdRunner(ref, deadline) if workload in COLD else WarmRunner(deadline)
    try:
        if not trace:
            results, pass_times = run_passes(runner, ops, seconds - (time.perf_counter() - start), deadline)
        else:
            untraced, traced, memory = traced_run(runner, ops, deadline)
            results = untraced + traced + memory
    finally:
        peak_kb = runner.close()
    failed = [(op, r) for op, r in results if r["error"]]
    for op, r in failed[:10]:
        lines.append(f"FAILED op {op['id']} {op['kind']}: {r['error']}")
    if not trace:
        metrics, notes = end_to_end(workload, ops, results, pass_times, setup, peak_kb)
        lines.append(f"{len(pass_times)} pass(es) of {len(ops)} ops")
        units = dict(END_TO_END)
    else:
        cold = workload in COLD
        import_s = [r["info"]["import_s"] for _, r in untraced if "info" in r] if cold else runner.import_s
        metrics, spans, table, notes = layer_metrics(traced, untraced, memory, import_s, cold)
        OUT.mkdir(exist_ok=True)
        for kind, data in (("spans", spans), ("layers", table)):
            path = OUT / f"{kind}-{workload}-seed{seed}.json"
            path.write_text(json.dumps(data))
            lines.append(f"wrote {path.relative_to(ROOT)}")
        units = dict(per_layer_names())
    lines += notes
    for name, value in metrics.items():
        if not name.endswith((".calls", ".busy_s")):  # those are in the table above
            lines.append(f"{name:48s} {value:.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "permaps" / "__init__.py").is_file():
        print(f"error: no permaps sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.all else [args.workload]
    if names == [None]:
        parser.error("give --workload NAME or --all")
    combined = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
            combined[name] = result
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined if args.all else combined[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
