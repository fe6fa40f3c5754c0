"""Independent checks for every benchmark op.

Nothing here imports permaps.  Counting sequences, Stirling rows and the
indecomposable triangle are derived from first principles with plain
integer lists, CLI output is parsed from its documented text, JSON and
CSV forms, and bijection results are checked through their round trips
and the statistics the README says they transfer.  Each ``check_*``
function returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# --- permutations, as tuples of images of 1..n ---------------------------------


def cycle_count(images) -> int:
    seen = [False] * (len(images) + 1)
    count = 0
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j - 1]
    return count


def lr_maxima_count(images) -> int:
    best = count = 0
    for v in images:
        if v > best:
            best, count = v, count + 1
    return count


def is_indecomposable(images) -> bool:
    running = 0
    for i, v in enumerate(images[:-1], start=1):
        running = max(running, v)
        if running == i:
            return False
    return True


def is_fpf_involution(images) -> bool:
    return len(images) % 2 == 0 and all(
        v != i and images[v - 1] == i for i, v in enumerate(images, start=1)
    )


def is_permutation(images) -> bool:
    return sorted(images) == list(range(1, len(images) + 1))


def fundamental_transform(images) -> tuple[int, ...]:
    """Start every cycle at its maximum, order cycles by that maximum and
    read them off in one line: cycle maxima become left-to-right maxima."""
    seen = [False] * (len(images) + 1)
    cycles = []
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = images[j - 1]
        top = cyc.index(max(cyc))
        cycles.append(cyc[top:] + cyc[:top])
    cycles.sort(key=lambda c: c[0])
    return tuple(e for c in cycles for e in c)


def conjugate(images, phi) -> tuple[int, ...]:
    """i -> phi^{-1}(p(phi(i))): relabel p through phi."""
    inv = [0] * (len(phi) + 1)
    for i, v in enumerate(phi, start=1):
        inv[v] = i
    return tuple(inv[images[phi[i] - 1]] for i in range(len(phi)))


def is_transitive(sigma, alpha) -> bool:
    n = len(sigma)
    reached = [False] * (n + 1)
    stack = [n]
    reached[n] = True
    while stack:
        d = stack.pop()
        for e in (sigma[d - 1], alpha[d - 1]):
            if not reached[e]:
                reached[e] = True
                stack.append(e)
    return all(reached[1:])


# --- reference numbers ---------------------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


class Reference:
    """First-principles tables, grown on demand and kept for the run.

    c_n   = n! - sum_{p<n} c_p (n-p)!                  indecomposables
    i_m   = (2m-1)!! - sum_{p<m} i_p (2m-2p-1)!!       indecomposable pairings
    A_n   = x(x+1)...(x+n-1)                           Stirling rows
    C_n   = A_n - sum_{p<n} C_p A_{n-p}                indecomposables by cycles
    """

    def __init__(self) -> None:
        self.fact = [1]
        self.dfact = [1]  # (2m-1)!!
        self.c = [0]
        self.i = [0]
        self.stirling = [[1]]
        self.triangle = [[0]]

    def grow(self, n: int) -> "Reference":
        while len(self.fact) <= n + 1:
            m = len(self.fact)
            self.fact.append(self.fact[-1] * m)
            self.dfact.append(self.dfact[-1] * (2 * m - 1))
        while len(self.c) <= n + 1:
            m = len(self.c)
            self.c.append(
                self.fact[m] - sum(self.c[p] * self.fact[m - p] for p in range(1, m))
            )
            self.i.append(
                self.dfact[m] - sum(self.i[p] * self.dfact[m - p] for p in range(1, m))
            )
        while len(self.stirling) <= n:
            m = len(self.stirling)
            self.stirling.append(_poly_mul(self.stirling[-1], [m - 1, 1]))
        while len(self.triangle) <= n:
            m = len(self.triangle)
            row = list(self.stirling[m])
            for p in range(1, m):
                for k, v in enumerate(_poly_mul(self.triangle[p], self.stirling[m - p])):
                    row[k] -= v
            self.triangle.append(row)
        return self


# --- parsing CLI output ----------------------------------------------------------

_FACTOR = re.compile(r"(x|y)(?:\^(\d+))?\Z")


def parse_poly_text(text: str) -> dict[tuple[int, int], int]:
    """``x^2*y + 3*x*y^2 - 4`` -> {(2, 1): 1, (1, 2): 3, (0, 0): -4}."""
    tokens = text.strip().split(" ")
    if tokens == ["0"]:
        return {}
    if tokens[0].startswith("-"):
        tokens = ["-", tokens[0][1:]] + tokens[1:]
    else:
        tokens = ["+"] + tokens
    if len(tokens) % 2:
        raise ValueError(f"unbalanced polynomial text: {text[:60]!r}")
    out: dict[tuple[int, int], int] = {}
    for sign, term in zip(tokens[::2], tokens[1::2]):
        if sign not in "+-":
            raise ValueError(f"bad sign {sign!r}")
        coeff, px, py = 1, 0, 0
        for factor in term.split("*"):
            m = _FACTOR.match(factor)
            if m:
                power = int(m.group(2) or 1)
                if m.group(1) == "x":
                    px = power
                else:
                    py = power
            else:
                coeff = int(factor)
        key = (px, py)
        if key in out:
            raise ValueError(f"repeated monomial {term!r}")
        out[key] = -coeff if sign == "-" else coeff
    return out


def parse_poly_json(terms) -> dict[tuple[int, int], int]:
    return {(int(t["x"]), int(t["y"])): int(t["c"]) for t in terms}


def _csv_rows(text: str, header: str) -> list[list[int]]:
    lines = text.strip().split("\n")
    if lines[0] != header:
        raise ValueError(f"csv header {lines[0]!r}, expected {header!r}")
    return [[int(v) for v in line.split(",")] for line in lines[1:]]


def evaluate(poly: dict, x, y) -> int:
    return sum(c * x**px * y**py for (px, py), c in poly.items())


def is_symmetric(poly: dict) -> bool:
    return all(poly.get((py, px)) == c for (px, py), c in poly.items())


def x_row(poly: dict) -> list[int]:
    """Coefficients of P(x, 1) by power of x."""
    row = [0] * (max((px for px, _ in poly), default=0) + 1)
    for (px, _), c in poly.items():
        row[px] += c
    return row


def _strip(row: list[int]) -> list[int]:
    row = list(row)
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return row


# --- per-op checks ---------------------------------------------------------------


def _read_poly(out: str, fmt: str, which: str, size_key: str, size: int) -> dict:
    if fmt == "plain":
        return parse_poly_text(out)
    if fmt == "json":
        obj = json.loads(out)
        if obj.get("kind") != which or obj.get(size_key) != size:
            raise ValueError(f"json header {obj.get('kind')!r}/{obj.get(size_key)!r}")
        return parse_poly_json(obj["poly"])
    return {(x, y): c for x, y, c in _csv_rows(out, "x,y,c")}


def check_poly(ref: Reference, which: str, size: int, fmt: str, out: str) -> str | None:
    size_key = "m" if which in ("M", "Mprime") else "n"
    poly = _read_poly(out, fmt, which, size_key, size)
    ref.grow(size + 1)
    if which == "A":
        if any(py for _, py in poly) or _strip(x_row(poly)) != ref.stirling[size]:
            return f"A_{size} is not the Stirling row"
    elif which == "C":
        if any(py for _, py in poly) or _strip(x_row(poly)) != _strip(ref.triangle[size]):
            return f"C_{size} is not the indecomposable triangle row"
    elif which == "L":
        if evaluate(poly, 1, 1) != ref.fact[size]:
            return f"L_{size}(1,1) != {size}!"
    elif which == "Lprime":
        if evaluate(poly, 1, 1) != ref.c[size]:
            return f"L'_{size}(1,1) != c_{size}"
        if size >= 2 and not is_symmetric(poly):
            return f"L'_{size} is not x/y-symmetric"
        if _strip(x_row(poly)) != _strip(ref.triangle[size]):
            return f"L'_{size}(x,1) != C_{size}(x)"
    elif which == "M":
        if any(px for px, _ in poly) or evaluate(poly, 1, 1) != ref.dfact[size]:
            return f"M_{size}(1) != (2m-1)!!"
    elif which == "Mprime":
        if any(px for px, _ in poly) or evaluate(poly, 1, 1) != ref.i[size]:
            return f"M'_{size}(1) != i_{size}"
    return None


def check_table_joint(ref: Reference, max_n: int, fmt: str, out: str) -> str | None:
    if fmt == "plain":
        polys = {}
        for line in out.strip().split("\n"):
            head, _, body = line.partition(": ")
            polys[int(head)] = parse_poly_text(body)
    elif fmt == "json":
        polys = {int(r["n"]): parse_poly_json(r["poly"]) for r in json.loads(out)}
    else:
        polys = {}
        for n, x, y, c in _csv_rows(out, "n,x,y,c"):
            polys.setdefault(n, {})[(x, y)] = c
    if sorted(polys) != list(range(1, max_n + 1)):
        return f"rows {sorted(polys)[:5]}... are not 1..{max_n}"
    ref.grow(max_n)
    for n, poly in polys.items():
        if _strip(x_row(poly)) != ref.stirling[n]:
            return f"J_{n}(x,1) is not the Stirling row"
        if not is_symmetric(poly):
            return f"J_{n} is not symmetric"
    return None


def check_table_stirling(ref: Reference, max_n: int, fmt: str, out: str) -> str | None:
    if fmt == "plain":
        rows = {}
        for line in out.strip().split("\n"):
            head, _, body = line.partition(": ")
            rows[int(head)] = [int(v) for v in body.split()]
    elif fmt == "json":
        rows = {int(r["n"]): [int(v) for v in r["row"]] for r in json.loads(out)}
    else:
        rows = {}
        for n, k, v in _csv_rows(out, "n,k,value"):
            row = rows.setdefault(n, [])
            if k != len(row) + 1:
                return f"row {n} skips k = {len(row) + 1}"
            row.append(v)
    if sorted(rows) != list(range(2, max_n + 1)):
        return f"rows are not 2..{max_n}"
    ref.grow(max_n)
    for n, row in rows.items():
        if sum(row) != ref.c[n]:
            return f"row {n} does not sum to c_{n}"
        if [0] + row != _strip(ref.triangle[n]):
            return f"row {n} is not the indecomposable triangle row"
    return None


def _read_count(out: str, fmt: str, kind: str, params: dict) -> int:
    if fmt == "plain":
        return int(out.strip())
    if fmt == "json":
        obj = json.loads(out)
        if obj.get("kind") != kind or obj.get("params") != params:
            raise ValueError(f"json header {obj.get('kind')!r}/{obj.get('params')!r}")
        return int(obj["value"])
    rows = _csv_rows(out, ",".join(list(params) + ["value"]))
    if len(rows) != 1 or rows[0][:-1] != list(params.values()):
        raise ValueError("csv row does not echo the parameters")
    return rows[0][-1]


def check_count(ref: Reference, what: str, params: dict, fmt: str, out: str) -> str | None:
    ref.grow(max(params.values()) + 1)
    if what == "indecomposable":
        expected = ref.c[params["n"]]
    elif what == "maps":
        expected = ref.i[params["m"] + 1]
    else:
        expected = ref.triangle[params["n"]][params["k"]]
    got = _read_count(out, fmt, what, params)
    return None if got == expected else f"count {what} {params}: {got} != {expected}"


def check_prob(ref: Reference, n: int, fmt: str, out: str) -> str | None:
    ref.grow(n + 1)
    if fmt == "plain":
        text = out.strip()
    else:
        obj = json.loads(out)
        if obj.get("kind") != "transitive-probability" or obj.get("n") != n:
            return "json header does not echo the request"
        text = obj["value"]
    expected = Fraction(ref.c[n + 1], n * ref.fact[n])
    return None if Fraction(text) == expected else f"P_{n} = {text} != {expected}"


CHECK_NAMES = (
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
)


def parse_verify_report(out: str, fmt: str) -> dict[str, str]:
    """check name -> "pass" | "fail", from the plain or JSON report."""
    if fmt == "json":
        return {r["check"]: r["status"] for r in json.loads(out)}
    lines = out.strip().split("\n")
    statuses = {}
    for line in lines[:-1]:
        word, _, rest = line.partition(" ")
        if word not in ("PASS", "FAIL"):
            raise ValueError(f"bad report line {line[:60]!r}")
        statuses[rest.split(" ")[0]] = word.lower()
    failed = sum(1 for s in statuses.values() if s == "fail")
    tally = "all checks passed" if failed == 0 else f"{failed} check(s) failed"
    if lines[-1] != tally:
        raise ValueError(f"tally line {lines[-1]!r}, expected {tally!r}")
    return statuses


def check_verify(fault: str | None, fmt: str, code: int, out: str) -> str | None:
    """Every known check must appear; all pass, except that the
    skip-canonicalization fault must fail hypermap-census and nothing else."""
    statuses = parse_verify_report(out, fmt)
    missing = [c for c in CHECK_NAMES if c not in statuses]
    if missing:
        return f"report lacks {missing}"
    failing = sorted(c for c, s in statuses.items() if s != "pass")
    expected = ["hypermap-census"] if fault == "skip-canonicalization" else []
    if failing != expected:
        return f"failing checks {failing}, expected {expected}"
    if code != (1 if expected else 0):
        return f"exit code {code} for failing checks {failing}"
    return None


def check_bijection(family: str, images, result: dict) -> str | None:
    """Round trip plus the statistic transfer the README states."""
    images = tuple(images)
    n = len(images)
    if tuple(result["back"]) != images:
        return f"{family} round trip does not return its input (n={n})"
    if family in ("omr", "psi-prime"):
        sigma, alpha = tuple(result["sigma"]), tuple(result["alpha"])
        darts = n - 2 if family == "psi-prime" else n - 1
        if len(sigma) != darts or len(alpha) != darts:
            return f"{family} image has {len(sigma)} darts, expected {darts}"
        if not (is_permutation(sigma) and is_permutation(alpha)):
            return f"{family} image is not a pair of permutations"
        if not is_transitive(sigma, alpha):
            return f"{family} image is not transitive"
        if cycle_count(sigma) != lr_maxima_count(images):
            return f"{family}: vertices != left-to-right maxima"
        if family == "omr" and cycle_count(alpha) != cycle_count(images):
            return "omr: hyper-edges != cycles"
        if family == "psi-prime" and not is_fpf_involution(alpha):
            return "psi-prime: edge permutation is not a pairing"
    elif family == "delta":
        word = result["path"]
        if len(word) != 2 * n:
            return f"delta path has {len(word)} steps, expected {2 * n}"
        height = 0
        for tok in word:
            height += 1 if tok == "a" else -1
            if height < 0:
                return "delta path dips below zero"
        if height:
            return "delta path does not return to zero"
        if word.count("b0") != cycle_count(images):
            return "delta: b0 steps != cycles"
        if n >= 2 and is_indecomposable(images) and word.count("b1") != lr_maxima_count(images):
            return "delta: b1 steps != left-to-right maxima"
    elif family == "phi":
        mid = tuple(result["mid"])
        if not is_permutation(mid) or len(mid) != n:
            return "phi image is not a permutation of the same size"
        if cycle_count(mid) != lr_maxima_count(images) or lr_maxima_count(mid) != cycle_count(images):
            return "phi does not swap cycles and left-to-right maxima"
    elif family == "fft":
        if tuple(result["mid"]) != fundamental_transform(images):
            return "fundamental transform differs from the cycle flattening"
    else:
        return f"unknown family {family!r}"
    return None
