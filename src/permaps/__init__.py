"""Exact combinatorics of indecomposable permutations, rooted hypermaps
and labeled Dyck paths: counting sequences and polynomial families with
integer/rational arithmetic throughout, the size-preserving bijections
tying the three families together, and an exhaustive small-size
verification suite.

The namespace is ``__version__`` plus every submodule's ``__all__``.
Submodules load on first use (PEP 562): ``import permaps`` imports none
of them, ``permaps.<submodule>`` imports that one, and any other public
name imports the submodules in ``_SUBMODULES`` order up to the one that
lists it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = ("errors", "perm", "hypermap", "dyck", "enumpoly", "maps", "oracle")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__"] + [
            public for sub in _SUBMODULES for public in __getattr__(sub).__all__
        ]
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        owner = next((m for m in map(__getattr__, _SUBMODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})
