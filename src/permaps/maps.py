"""Rooted maps: hypermaps whose edge permutation pairs the darts.

A map on 2m darts is a hypermap (sigma, alpha) in which alpha is a
fixed-point-free involution; its cycles are the m edges, the cycles of
sigma the vertices.  Indecomposable fixed-point-free involutions of
S_{2m+2} (counted by i_{m+1}: 1, 2, 10, 74, ...) correspond to rooted
maps with m edges through ``psi_prime``, the hypermap bijection
specialized to pairings in closed form.  The last left-to-right maximum
of theta is j = theta(2m+2); the vertices are the intervals between
consecutive maxima of theta on 1..2m, and the edges are theta with the
pair {j, 2m+2} removed and the values above j closed up.
``psi_prime_inverse`` reads the canonical edges and j, the left
endpoint of the root vertex, off one canonical scan of the map, and
puts the pair back.  The number of vertices of the image equals the
number of left-to-right maxima of theta, so the vertex distribution
over all rooted maps with m edges is the polynomial M'_{m+1}.  The
counts import ``enumpoly`` when called: a bijection never compiles it.
"""

from __future__ import annotations

from .errors import NotFpf, SizeTooSmall
from .hypermap import (
    Hypermap,
    _canonical_alpha,
    _hypermap,
    _interval_cycles,
    _inverses,
    _split_maxima,
    hypermap_to_json_dict,
)
from .perm import Permutation, _perm

__all__ = [
    "RootedMap",
    "is_fpf_involution",
    "psi_prime",
    "psi_prime_inverse",
    "map_count",
    "map_count_by_vertices",
    "map_to_json_dict",
]


def is_fpf_involution(p: Permutation) -> bool:
    """True when p pairs up {1..n} with no fixed point (n must be even)."""
    images = p.images
    if len(images) % 2:
        return False
    for i, v in enumerate(images, 1):
        if v == i or images[v - 1] != i:
            return False
    return True


class RootedMap(Hypermap):
    """A hypermap whose alpha is a fixed-point-free involution."""

    __slots__ = ()

    def __init__(self, sigma: Permutation, alpha: Permutation) -> None:
        super().__init__(sigma, alpha)
        if not is_fpf_involution(self.alpha):
            raise NotFpf("alpha must be a fixed-point-free involution")

    @property
    def edge_count(self) -> int:
        return self.n // 2


def psi_prime(theta: Permutation) -> RootedMap:
    """Send an indecomposable pairing of S_{2m+2} to a map on 2m darts."""
    if not is_fpf_involution(theta):
        raise NotFpf(f"{theta!r} is not a fixed-point-free involution")
    if theta.n < 4:
        raise SizeTooSmall("the smallest usable pairing has size 4")
    starts = _split_maxima(theta)
    # theta pairs j with 2m+2, whose position is the last maximum: the
    # root vertex is j..2m, and dropping the pair closes up values above j;
    # the input checks already make the result a transitive pairing
    j = theta.images[-1]
    alpha = [v - (v > j) for i, v in enumerate(theta.images[:-1], 1) if i != j]
    sigma = _interval_cycles(starts, theta.n - 2)
    return _hypermap(sigma, _perm(tuple(alpha)), RootedMap)


def psi_prime_inverse(m: Hypermap) -> Permutation:
    """Rebuild the indecomposable pairing of S_{2m+2} from a rooted map.

    One canonical scan relabels the edges and gives j, the root vertex's
    left endpoint; shift the edge values at or above j up by one, put
    2m+2 at position j, and append j, which pairs j with 2m+2.  A
    ``RootedMap`` pairs its darts by construction; any other pair is
    checked first.
    """
    if not isinstance(m, RootedMap) and not is_fpf_involution(m.alpha):
        raise NotFpf("alpha must be a fixed-point-free involution")
    a, j = _canonical_alpha(*_inverses(m), m.alpha.images)
    theta = [v + (v >= j) for v in a]
    theta.insert(j - 1, m.n + 2)
    theta.append(j)
    return _perm(tuple(theta))


def map_count(m: int) -> int:
    """Rooted maps with m edges: 1, 2, 10, 74, 706, ... (m = 0 counts the
    empty map)."""
    if m < 0:
        raise ValueError("need m >= 0")
    from .enumpoly import i_count

    return i_count(m + 1)


def map_count_by_vertices(m: int, v: int) -> int:
    """Rooted maps with m edges and v vertices: the y^v coefficient of
    M'_{m+1}."""
    if m < 0:
        raise ValueError("need m >= 0")
    if v < 1:
        raise ValueError("need v >= 1")
    from .enumpoly import M_family

    return M_family(m + 1)[1].coefficient(0, v)


def map_to_json_dict(m: Hypermap) -> dict:
    """Hypermap JSON plus an explicit map marker."""
    d = hypermap_to_json_dict(m)
    d["is_map"] = True
    return d
