"""Time two copies of permaps in one process, called in turn.

Each ``src/`` directory is loaded as its own package (``side_a``,
``side_b``), so both stay importable side by side.  Every expression is
evaluated in a namespace holding the package as ``pm`` and each of its
submodules by name, after ``--setup`` has run there.  Rounds alternate
which side goes first; each sample times one evaluation, so batch many
calls inside the expression.  The outputs of the two sides must be
equal once every object with ``.images`` is read as its images, and
every other record (a class with ``__match_args__``, dataclass or not)
as its fields.  Example (see also the README):

    python tools/side_by_side.py PARENT/src src --setup "p = perm.identity(64)" \\
        "hypermap.phi_bijection(p)" "oracle.verify_suite(5, 3, 6)"

``--cold ARGV...`` (the last option) times ``python -m permaps ARGV``
instead, each run in a fresh interpreter with that side's ``src`` first
on PYTHONPATH, and prints each side's median and quartiles and the
rounds that side b won.  Exit code and stdout must be equal.  To count
compiling the sources, as a fresh checkout does, run it on trees
without ``__pycache__`` and with PYTHONDONTWRITEBYTECODE=1:

    PYTHONDONTWRITEBYTECODE=1 python tools/side_by_side.py PARENT/src src \\
        --rounds 20 --cold verify --max-n 5 --pair-max-n 4 --fpf-max-size 8
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
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
    """x with permutations read as images and other records as field tuples."""
    if hasattr(x, "images"):
        return x.images
    if hasattr(type(x), "__match_args__"):
        return tuple(plain(getattr(x, name)) for name in type(x).__match_args__)
    if isinstance(x, (list, tuple)):
        return tuple(plain(v) for v in x)
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    return x


def _quartiles(samples: list[float]) -> list[float]:
    return statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3


def cold(srcs: list[str], argv: list[str], rounds: int) -> None:
    """Time ``python -m permaps ARGV`` from each tree in fresh interpreters."""
    def run(src: str) -> tuple[float, tuple]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "permaps", *argv], env=env,
                              capture_output=True, text=True)
        return time.perf_counter() - t0, (done.returncode, done.stdout)

    samples: list[list[float]] = [[], []]
    for r in range(rounds):
        outputs = []
        for s in (0, 1) if r % 2 == 0 else (1, 0):
            seconds, output = run(srcs[s])
            samples[s].append(seconds)
            outputs.append(output)
        if outputs[0] != outputs[1]:
            raise SystemExit(f"outputs differ for permaps {' '.join(argv)}")
    (a_med, b_med), (a_q, b_q) = ([f(s) for s in samples] for f in (statistics.median, _quartiles))
    wins = sum(b < a for a, b in zip(*samples))
    print(f"permaps {' '.join(argv)}: a median {a_med * 1e3:.1f} ms [{a_q[0] * 1e3:.1f}, "
          f"{a_q[2] * 1e3:.1f}] | b median {b_med * 1e3:.1f} ms [{b_q[0] * 1e3:.1f}, "
          f"{b_q[2] * 1e3:.1f}] | b/a median {b_med / a_med:.3f} | b won {wins}/{rounds}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a")
    ap.add_argument("src_b")
    # "+" lets the expressions follow an option; --cold takes none
    ap.add_argument("exprs", nargs="*" if "--cold" in sys.argv else "+")
    ap.add_argument("--setup", default="")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--cold", nargs=argparse.REMAINDER, metavar="ARGV",
                    help="time `python -m permaps ARGV` cold instead; the last option")
    args = ap.parse_args()
    if args.cold is not None:
        return cold([args.src_a, args.src_b], args.cold, args.rounds)
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
