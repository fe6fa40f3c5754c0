"""Seeded op lists for the three workloads.

Every size is drawn log-uniformly within its stratum, which for most
commands is their whole range.  Draws are stratified so that two seeds
load the program alike: each stratum (or bijection family and input
shape) gets a systematic grid of quantiles with a seeded offset u plus
the mirrored grid at 1 - u, which cancels the first-order effect of the
offset on total cost.  Discrete settings (verify sizes, output
formats, fault injection) come in fixed proportions; the seed decides
which op gets which, and the order ops run in.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from check import fundamental_transform, is_indecomposable

# Command groups with their size flag and size strata (low, high, grid
# points); each grid point gives a mirrored pair of draws, and a
# two-command group, which computes one family, splits each pair.  L, M
# and joint strata split where the path-sum cross-check changes cost, so
# every seed gets the same number of ops in each class: the six n >= 10
# ops are the slowest of a pass, the six M ops at n = 9 come next and hold
# the tail op, and the median op is one of the many that mostly start an
# interpreter.  Every op stays under about 10 s at the commit that defined
# the benchmark.
POLY_MIX = (
    ((("poly", "L"), ("poly", "Lprime")), "--n", ((1, 8, 1), (10, 32, 1))),
    ((("poly", "M"), ("poly", "Mprime")), "--m", ((1, 8, 1), (9, 9, 3), (10, 64, 1))),
    ((("table", "joint"),), "--max-n", ((1, 8, 1), (10, 20, 1))),
    ((("poly", "A"),), "--n", ((1, 64, 2),)),
    ((("poly", "C"),), "--n", ((1, 40, 1),)),
    ((("table", "stirling-indec"),), "--max-n", ((2, 40, 1),)),
    ((("count", "indecomposable"),), "--n", ((1, 64, 2),)),
    ((("count", "maps"),), "--m", ((1, 64, 2),)),
    ((("count", "stirling-indec"),), "--n", ((2, 64, 1),)),
    ((("prob", "transitive"),), "--n", ((1, 64, 2),)),
)

FAMILIES = ("omr", "delta", "phi", "psi-prime", "fft")
SHAPES = ("random", "many-cycles", "many-maxima")
BIJECTION_RANGE = (16, 2048)
BIJECTION_DRAWS = 18

# verify ops: (max-n, pair-max-n values, fpf-max-size values, op count).
# The max-n 7 op is the default suite.  Values are spread evenly over the
# ops of a row, so the seed changes which op gets which setting, not how
# much work a pass holds; VERIFY_FAULTS ops of the smaller rows inject the
# fault.  Most ops are max-n 5, so the median and the tail op both fall
# among like ops rather than between two sizes.
VERIFY_MIX = (
    (7, (5,), (10,), 1),
    (6, (3, 4), (8, 10), 5),
    (5, (3, 4, 4), (6, 8), 36),
)
VERIFY_FAULTS = 6

FAULT = "skip-canonicalization"


def _quantiles(rng: random.Random, draws: int, u: float | None = None) -> list[float]:
    u = rng.random() if u is None else u
    return [(j + u) / draws for j in range(draws)] + [
        (j + 1 - u) / draws for j in range(draws)
    ]


def _log_uniform(q: float, lo: int, hi: int) -> int:
    return min(hi, int(math.exp(math.log(lo) + q * (math.log(hi + 1) - math.log(lo)))))


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def poly_cold(rng: random.Random, scale: float) -> list[dict]:
    ops = []
    for group, flag, strata in POLY_MIX:
        for lo, hi, points in strata:
            qs = _quantiles(rng, _scaled(points, scale))
            if len(group) == 2:
                # the pair computes the same family: split each mirrored pair
                qs = qs if rng.random() < 0.5 else qs[::-1]
                cmds = [group[i % 2] for i in range(len(qs))]
            else:
                cmds = [group[0]] * len(qs)
            for words, q in zip(cmds, qs):
                size = _log_uniform(q, lo, hi)
                argv = [*words, flag, str(size)]
                if words == ("count", "stirling-indec"):
                    argv += ["--k", str(rng.randint(1, size - 1))]
                formats = ("plain", "json") if words[0] == "prob" else ("plain", "json", "csv")
                argv += ["--format", rng.choice(formats)]
                ops.append({"kind": " ".join(words), "argv": argv})
    return ops


def _spread(rng: random.Random, values: tuple, count: int) -> list:
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def verify_exhaustive(rng: random.Random, scale: float) -> list[dict]:
    settings = []
    for max_n, pairs, fpfs, count in VERIFY_MIX:
        count = _scaled(count, scale)
        settings += zip([max_n] * count, _spread(rng, pairs, count), _spread(rng, fpfs, count))
    faults = set(rng.sample(range(1, len(settings)), min(len(settings) - 1, _scaled(VERIFY_FAULTS, scale))))
    ops = []
    for i, (max_n, pair_max_n, fpf) in enumerate(settings):
        argv = ["verify", "--max-n", str(max_n), "--pair-max-n", str(pair_max_n),
                "--fpf-max-size", str(fpf)]
        if i in faults:
            argv += ["--inject-fault", FAULT]
        argv += ["--format", rng.choice(("plain", "json"))]
        ops.append({"kind": "verify", "argv": argv})
    return ops


def random_indecomposable(rng: random.Random, n: int) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    while True:
        rng.shuffle(images)
        if is_indecomposable(images):
            return tuple(images)


def random_pairing(rng: random.Random, n: int) -> tuple[int, ...]:
    """An indecomposable fixed-point-free involution of size n (n even)."""
    points = list(range(1, n + 1))
    while True:
        rng.shuffle(points)
        images = [0] * n
        for a, b in zip(points[::2], points[1::2]):
            images[a - 1], images[b - 1] = b, a
        if is_indecomposable(images):
            return tuple(images)


def root_fixing_relabel(rng: random.Random, darts: int) -> tuple[int, ...]:
    rest = list(range(1, darts))
    rng.shuffle(rest)
    return tuple(rest) + (darts,)


def bijection_batch(rng: random.Random, scale: float) -> list[dict]:
    lo, hi = BIJECTION_RANGE
    ops = []
    for family in FAMILIES:
        # psi-prime is defined on pairings only; it takes all its draws there
        shapes = ("many-cycles",) * 3 if family == "psi-prime" else SHAPES
        # staggered offsets: together the shapes' grids form one finer grid
        u = rng.random()
        for i, shape in enumerate(shapes):
            offset = (u + i / len(shapes)) % 1
            for q in _quantiles(rng, _scaled(BIJECTION_DRAWS, scale), offset):
                n = _log_uniform(q, lo, hi)
                if shape == "random" and family != "psi-prime":
                    images = random_indecomposable(rng, n)
                else:
                    images = random_pairing(rng, n - n % 2)
                    if shape == "many-maxima":
                        images = fundamental_transform(images)
                op = {"kind": family, "shape": shape, "input": list(images)}
                if family in ("omr", "psi-prime"):
                    darts = len(images) - (2 if family == "psi-prime" else 1)
                    op["relabel"] = list(root_fixing_relabel(rng, darts))
                ops.append(op)
    return ops


WORKLOADS = {
    "poly-cold": poly_cold,
    "bijection-batch": bijection_batch,
    "verify-exhaustive": verify_exhaustive,
}


def generate(workload: str, seed: int, scale: float = 1.0) -> list[dict]:
    """The op list for one run, in run order, with ids 0..N-1."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, scale)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def digest(ops: list[dict]) -> str:
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
