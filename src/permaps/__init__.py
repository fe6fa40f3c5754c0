"""Exact combinatorics of indecomposable permutations, rooted hypermaps
and labeled Dyck paths: counting sequences and polynomial families with
integer/rational arithmetic throughout, the size-preserving bijections
tying the three families together, and an exhaustive small-size
verification suite.

The namespace is ``__version__`` plus every submodule's ``__all__``.
"""

__version__ = "0.1.0"

from . import dyck, enumpoly, errors, hypermap, maps, oracle, perm
from .errors import *  # noqa: F401,F403
from .perm import *  # noqa: F401,F403
from .hypermap import *  # noqa: F401,F403
from .dyck import *  # noqa: F401,F403
from .enumpoly import *  # noqa: F401,F403
from .maps import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (errors, perm, hypermap, dyck, enumpoly, maps, oracle)
    for name in module.__all__
]
