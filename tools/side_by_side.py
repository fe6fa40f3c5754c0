"""Time two copies of permaps in one process, called in turn.

Each ``src/`` directory is loaded as its own package (``side_a``,
``side_b``), so both stay importable side by side.  Every expression is
evaluated in a namespace holding the package as ``pm`` and each of its
submodules by name, after ``--setup`` has run there.  Rounds alternate
which side goes first; each sample times one evaluation, so batch many
calls inside the expression.  The outputs of the two sides must be
equal once every object with ``.images`` is read as its images.  Example (see also the README):

    python tools/side_by_side.py PARENT/src src --setup "p = perm.identity(64)" \\
        "hypermap.phi_bijection(p)" "oracle.verify_suite(5, 3, 6)"
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SUBMODULES = ("errors", "perm", "hypermap", "dyck", "enumpoly", "maps", "oracle")


def load(src: str, name: str) -> dict:
    """Import ``src/permaps`` as package ``name``; its namespace for eval."""
    init = Path(src) / "permaps" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return {"pm": pkg, **{sub: getattr(pkg, sub) for sub in SUBMODULES}}


def plain(x):
    """x with permutations read as images and dataclasses as field tuples."""
    if hasattr(x, "images"):
        return x.images
    if dataclasses.is_dataclass(x):
        return tuple(plain(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(plain(v) for v in x)
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    return x


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a")
    ap.add_argument("src_b")
    ap.add_argument("exprs", nargs="+")
    ap.add_argument("--setup", default="")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args()
    sides = [load(args.src_a, "side_a"), load(args.src_b, "side_b")]
    for ns in sides:
        exec(args.setup, ns)
    for expr in args.exprs:
        code = compile(expr, "<expr>", "eval")
        if plain(eval(code, sides[0])) != plain(eval(code, sides[1])):
            raise SystemExit(f"outputs differ for {expr!r}")
        samples: list[list[float]] = [[], []]
        for r in range(args.rounds):
            for s in (0, 1) if r % 2 == 0 else (1, 0):
                t0 = time.perf_counter()
                eval(code, sides[s])
                samples[s].append(time.perf_counter() - t0)
        (a, b), (a_med, b_med) = ([f(s) for s in samples] for f in (min, statistics.median))
        print(f"{expr}: a min {a * 1e3:.4f} ms median {a_med * 1e3:.4f} ms | b min "
              f"{b * 1e3:.4f} ms median {b_med * 1e3:.4f} ms | b/a min {b / a:.3f} "
              f"median {b_med / a_med:.3f}")


if __name__ == "__main__":
    main()
