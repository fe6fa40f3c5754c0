"""Command-line front end.

Every bijection, count, polynomial, and the verification suite is
reachable as a subcommand with plain, JSON, or CSV output (CSV only
where the values are plain integers).  Output is byte-stable across
runs; exit codes are 0 on success, 1 on a domain error (reported as
``error: ...`` on stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import import_module

from . import __version__
from .errors import LimitExceeded, PermapsError

__all__ = ["dispatch", "main"]

_SIZE_LIMIT = 64  # exact arithmetic stays fast; larger requests are refused
_NO_CSV = ("plain", "json")


def _check_size(name: str, value: int) -> None:
    if value > _SIZE_LIMIT:
        raise LimitExceeded(f"{name} = {value} exceeds the supported bound {_SIZE_LIMIT}")


def _emit(args, plain, obj, rows=None) -> int:
    """Print the form of a result that ``--format`` asks for, the only
    code that branches on it.  ``plain`` (the text), ``obj`` (the JSON
    value) and ``rows`` (the CSV rows, header first) are callables, and
    only the requested one is called."""
    if args.format == "plain":
        print(plain())
    elif args.format == "json":
        import json

        print(json.dumps(obj()))
    else:
        for row in rows():
            print(",".join(map(str, row)))
    return 0


def _count(args, kind: str, value: int, params: dict, json_only: dict | None = None) -> int:
    """One exact count: the value, ``{"kind", "params", "value"}``, or a
    CSV row of the params then the value (``json_only`` params: JSON only)."""
    return _emit(
        args,
        lambda: value,
        lambda: {"kind": kind, "params": {**params, **(json_only or {})}, "value": value},
        lambda: [(*params, "value"), (*params.values(), value)],
    )


def _lazy(path: str):
    """The library function ``permaps.<module>.<name>`` named by ``path``,
    whose module is imported at the first call, so that a command loads
    only the modules it runs."""
    module, name = path.split(".")

    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    return call


# Outside the bijection table, handlers look these library functions up as
# module globals when they run, so replacing permaps.cli.<name> sees every call.
L_family = _lazy("enumpoly.L_family")
M_family = _lazy("enumpoly.M_family")
c_count = _lazy("enumpoly.c_count")
c_count_by_cycles = _lazy("enumpoly.c_count_by_cycles")
c_poly = _lazy("enumpoly.c_poly")
joint_perm_poly = _lazy("enumpoly.joint_perm_poly")
stirling_poly = _lazy("enumpoly.stirling_poly")
transitive_probability = _lazy("enumpoly.transitive_probability")
map_count = _lazy("maps.map_count")
verify_suite = _lazy("oracle.verify_suite")


# --- count -------------------------------------------------------------------


def _cmd_count_indecomposable(args) -> int:
    _check_size("n", args.n)
    return _count(args, "indecomposable", c_count(args.n), {"n": args.n})


def _cmd_count_hypermaps(args) -> int:
    _check_size("n", args.n)
    if args.n < 1:
        raise ValueError("need n >= 1")
    value = c_count(args.n + 1)
    kind = "hypermaps-rooted"
    if args.labeled:
        value *= math.factorial(args.n - 1)
        kind = "hypermaps-labeled"
    return _count(args, kind, value, {"n": args.n}, {"labeled": args.labeled})


def _cmd_count_maps(args) -> int:
    _check_size("m", args.m)
    return _count(args, "maps", map_count(args.m), {"m": args.m})


def _cmd_count_stirling(args) -> int:
    _check_size("n", args.n)
    value = c_count_by_cycles(args.n, args.k)
    return _count(args, "stirling-indec", value, {"n": args.n, "k": args.k})


# --- table -------------------------------------------------------------------


def _cmd_table_stirling(args) -> int:
    _check_size("max-n", args.max_n)
    if args.max_n < 2:
        raise ValueError("need max-n >= 2")
    rows = [
        (n, [c_count_by_cycles(n, k) for k in range(1, n)])
        for n in range(2, args.max_n + 1)
    ]
    return _emit(
        args,
        lambda: "\n".join(f"{n}: " + " ".join(map(str, row)) for n, row in rows),
        lambda: [{"n": n, "row": row} for n, row in rows],
        lambda: [("n", "k", "value")]
        + [(n, k, v) for n, row in rows for k, v in enumerate(row, start=1)],
    )


def _cmd_table_joint(args) -> int:
    _check_size("max-n", args.max_n)
    if args.max_n < 1:
        raise ValueError("need max-n >= 1")
    joint_perm_poly(args.max_n)  # one walk to max-n yields every smaller n too
    polys = [(n, joint_perm_poly(n)) for n in range(1, args.max_n + 1)]
    return _emit(
        args,
        lambda: "\n".join(f"{n}: {poly.to_string()}" for n, poly in polys),
        lambda: [{"n": n, "poly": poly.to_json_obj()} for n, poly in polys],
        lambda: [("n", "x", "y", "c")] + [(n, *t) for n, poly in polys for t in poly.terms()],
    )


# --- bij ---------------------------------------------------------------------


_parse_permutation = _lazy("perm.parse_permutation")


def _parse_perm_arg(text: str):
    # cycle text starts with a parenthesis; anything else is one-line
    notation = "cycle" if text.lstrip().startswith("(") else "one-line"
    return _parse_permutation(text, notation=notation)


def _omr_inverse(sigma, alpha):
    from .hypermap import Hypermap, psi_inverse

    return psi_inverse(Hypermap(sigma, alpha))


_PERM_IN = {"perm": _parse_permutation}
_PERM_OUT = (_lazy("perm.format_permutation"), lambda p: {"perm": list(p.images)})
_HYPERMAP_TEXT = _lazy("hypermap.hypermap_to_text")

# subcommand: (parser of each input option, bijection, plain and JSON renderers)
_BIJECTIONS = {
    "omr": (
        _PERM_IN,
        _lazy("hypermap.psi"),
        (_HYPERMAP_TEXT, _lazy("hypermap.hypermap_to_json_dict")),
    ),
    "omr-inv": ({"sigma": _parse_perm_arg, "alpha": _parse_perm_arg}, _omr_inverse, _PERM_OUT),
    "fft": (_PERM_IN, _lazy("perm.fundamental_transform"), _PERM_OUT),
    "fft-inv": (_PERM_IN, _lazy("perm.fundamental_transform_inverse"), _PERM_OUT),
    "delta": (
        _PERM_IN,
        _lazy("dyck.delta"),
        (_lazy("dyck.format_labeled_path"), lambda lp: {"path": list(lp.word)}),
    ),
    "delta-inv": (
        {"path": _lazy("dyck.parse_labeled_path")}, _lazy("dyck.delta_inverse"), _PERM_OUT
    ),
    "phi": (_PERM_IN, _lazy("hypermap.phi_bijection"), _PERM_OUT),
    "psi-prime": (
        _PERM_IN, _lazy("maps.psi_prime"), (_HYPERMAP_TEXT, _lazy("maps.map_to_json_dict"))
    ),
}


def _cmd_bij(args) -> int:
    inputs, bijection, (plain, to_json) = _BIJECTIONS[args.what]
    result = bijection(*(parse(getattr(args, name)) for name, parse in inputs.items()))
    return _emit(args, lambda: plain(result), lambda: to_json(result))


# --- poly --------------------------------------------------------------------


def _cmd_poly(args) -> int:
    if args.which in ("M", "Mprime"):
        _check_size("m", args.m)
        poly, params = M_family(args.m)[1 if args.which == "Mprime" else 0], {"m": args.m}
    else:
        _check_size("n", args.n)
        params = {"n": args.n}
        if args.which in ("L", "Lprime"):
            poly = L_family(args.n)[1 if args.which == "Lprime" else 0]
        else:
            poly = (stirling_poly if args.which == "A" else c_poly)(args.n)
    return _emit(
        args,
        poly.to_string,
        lambda: {"kind": args.which, **params, "poly": poly.to_json_obj()},
        lambda: [("x", "y", "c"), *poly.terms()],
    )


# --- prob / verify -----------------------------------------------------------


def _cmd_prob_transitive(args) -> int:
    _check_size("n", args.n)
    value = transitive_probability(args.n)
    return _emit(
        args,
        lambda: value,
        lambda: {"kind": "transitive-probability", "n": args.n, "value": str(value)},
    )


def _cmd_verify(args) -> int:
    report = verify_suite(args.max_n, args.pair_max_n, args.fpf_max_size, args.inject_fault)
    _emit(args, report.to_text, report.to_json_obj)
    return 0 if report.passed else 1


# --- parser ------------------------------------------------------------------


_SIZE_ARG = {"type": int, "required": True}  # a required --n, --m, --k or --max-n


class _Faults:
    """The choices of --inject-fault: oracle.FAULTS, imported only when
    argparse checks a value or prints the verify usage."""

    def __iter__(self):
        from .oracle import FAULTS

        return iter(FAULTS)  # ``in`` iterates too


def _command(sub, name: str, handler, options: dict, formats=("plain", "json", "csv"), **kwargs):
    """Add subcommand ``name`` with ``--<option>`` per entry of ``options``
    (its add_argument keywords), then ``--format``; ``kwargs`` (a help
    line) go to ``add_parser``."""
    p = sub.add_parser(name, **kwargs)
    for option, spec in options.items():
        # add_argument reads choices at once; set afterwards, they are read
        # only when a value is checked or the usage is printed (see _Faults)
        action = p.add_argument(f"--{option}", **{k: v for k, v in spec.items() if k != "choices"})
        action.choices = spec.get("choices")
    p.add_argument("--format", choices=formats, default="plain")
    p.set_defaults(handler=handler)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permaps",
        description="Exact counts, polynomials, and bijections for "
        "indecomposable permutations, hypermaps, and labeled Dyck paths.",
    )
    # kept out of --help and the usage line, whose bytes are pinned
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}", help=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="single exact counts")
    count_sub = count.add_subparsers(dest="what", required=True)
    _command(
        count_sub, "indecomposable", _cmd_count_indecomposable, {"n": _SIZE_ARG},
        help="indecomposable permutations of S_n",
    )
    labeled = {"action": "store_true", "help": "count labeled (transitive pairs) instead"}
    _command(
        count_sub, "hypermaps", _cmd_count_hypermaps, {"n": _SIZE_ARG, "labeled": labeled},
        help="rooted hypermaps on n darts",
    )
    _command(count_sub, "maps", _cmd_count_maps, {"m": _SIZE_ARG}, help="rooted maps with m edges")
    _command(
        count_sub, "stirling-indec", _cmd_count_stirling, {"n": _SIZE_ARG, "k": _SIZE_ARG},
        help="indecomposable permutations of S_n with k cycles",
    )

    table = sub.add_parser("table", help="whole tables of counts")
    table_sub = table.add_subparsers(dest="what", required=True)
    _command(
        table_sub, "stirling-indec", _cmd_table_stirling, {"max-n": _SIZE_ARG},
        help="triangle rows 2..max-n",
    )
    _command(
        table_sub, "joint", _cmd_table_joint, {"max-n": _SIZE_ARG},
        help="joint cycle/maxima polynomials 1..max-n",
    )

    bij = sub.add_parser("bij", help="apply a bijection to one object")
    bij_sub = bij.add_subparsers(dest="what", required=True)
    for name, (inputs, _, _) in _BIJECTIONS.items():
        _command(bij_sub, name, _cmd_bij, dict.fromkeys(inputs, {"required": True}), _NO_CSV)

    poly = sub.add_parser("poly", help="print an exact polynomial")
    poly_sub = poly.add_subparsers(dest="which", required=True)
    for name in ("A", "C", "L", "Lprime"):
        _command(poly_sub, name, _cmd_poly, {"n": _SIZE_ARG})
    for name in ("M", "Mprime"):
        _command(poly_sub, name, _cmd_poly, {"m": _SIZE_ARG})

    prob = sub.add_parser("prob", help="exact probabilities")
    prob_sub = prob.add_subparsers(dest="what", required=True)
    _command(
        prob_sub, "transitive", _cmd_prob_transitive, {"n": _SIZE_ARG}, _NO_CSV,
        help="P(random pair on n darts is transitive)",
    )

    verify = {
        "max-n": {"type": int, "default": 7},
        "pair-max-n": {"type": int, "default": 5},
        "fpf-max-size": {"type": int, "default": 10},
        "inject-fault": {"choices": _Faults(), "default": None},
    }
    _command(sub, "verify", _cmd_verify, verify, _NO_CSV, help="run the exhaustive cross-check suite")
    return parser


def dispatch(argv: list[str]) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after help, 2 on a usage error
        return exc.code
    try:
        return args.handler(args)
    except (PermapsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
