"""Hypermaps: transitive pairs of permutations acting on darts {1..n}.

A hypermap is a pair (sigma, alpha) of permutations of {1..n} whose
combined action is transitive.  The cycles of sigma are the vertices,
the cycles of alpha are the hyper-edges, and dart n is the root.  Two
hypermaps are rooted-isomorphic when some relabeling that fixes the
root conjugates one onto the other.

``psi`` sends an indecomposable permutation theta of S_{n+1} to a
hypermap on n darts: cut {1..n+1} into intervals at the left-to-right
maxima of theta and close each interval into a cycle of sigma, then
delete the value n+1 from theta's cycles to obtain alpha.  It is a
bijection onto rooted hypermaps (one canonical representative per
rooted-isomorphism class); ``psi_inverse`` reads the permutation back
off one canonical scan, which relabels alpha alone and finds the root
vertex's left endpoint as the place of sigma(n).  The number of cycles
of alpha equals the number of cycles of theta, and the number of cycles
of sigma equals the number of left-to-right maxima of theta.

``canonical_rooted_form`` computes the distinguished labeling of an
isomorphism class directly, so isomorphism testing is an equality
check.  In the canonical labeling every vertex is an interval of
consecutive darts traversed in increasing order, and the set of
right-to-left minima of the sequence alpha^{-1} meets {1..i_k - 1}
exactly in the left endpoints of the non-root intervals (i_k being the
left endpoint of the root's interval); ``satisfies_lemma1`` tests that
syntactic characterization.

``phi_bijection`` composes psi with its inverse on the swapped pair,
block by block: an involution of S_n exchanging the number of cycles
with the number of left-to-right maxima, in closed form: one canonical
scan per block.

``Hypermap(...)`` checks transitivity.  The private ``_hypermap`` skips
that check on three trusted paths: the output of
``canonical_rooted_form``, whose scan raises ``NotTransitive`` unless it
reaches every dart, ``psi``'s pair, split from a checked indecomposable
permutation, and ``maps.psi_prime``'s map, built as the ``RootedMap``
subclass from a checked indecomposable pairing.  ``phi_bijection``
builds no swapped pair at all; its scan's ``NotTransitive`` stands in
for the check of ``Hypermap(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .errors import (
    Decomposable,
    NotTransitive,
    ParseError,
    SizeMismatch,
    SizeTooSmall,
)
from .perm import (
    Permutation,
    _perm,
    cycles,
    format_cycles,
    from_cycles,
    parse_permutation,
)

__all__ = [
    "PermPair",
    "Hypermap",
    "is_transitive",
    "psi",
    "satisfies_lemma1",
    "canonical_rooted_form",
    "psi_inverse",
    "rooted_isomorphic",
    "phi_bijection",
    "hypermap_to_text",
    "hypermap_from_text",
    "hypermap_to_json_dict",
    "hypermap_from_json_dict",
]


@dataclass(frozen=True)
class PermPair:
    """Two permutations of the same {1..n}, transitive or not."""

    sigma: Permutation
    alpha: Permutation

    def __post_init__(self) -> None:
        if len(self.sigma.images) != len(self.alpha.images):
            raise SizeMismatch(
                f"sigma acts on 1..{self.sigma.n} but alpha on 1..{self.alpha.n}"
            )

    @property
    def n(self) -> int:
        return self.sigma.n


@dataclass(frozen=True)
class Hypermap(PermPair):
    """A transitive PermPair; construction checks transitivity."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not is_transitive(self):
            raise NotTransitive("sigma and alpha do not act transitively")


def _hypermap(sigma: Permutation, alpha: Permutation, cls: type = Hypermap) -> Hypermap:
    """A Hypermap (or the subclass ``cls``) on a pair already known to
    pass that class's checks, built without running them."""
    h = object.__new__(cls)
    object.__setattr__(h, "sigma", sigma)
    object.__setattr__(h, "alpha", alpha)
    return h


def is_transitive(pair: PermPair) -> bool:
    """Connectivity of the graph joining each dart to its two images.

    Inverses are powers in a finite group, so forward steps from dart n
    reach its whole orbit."""
    sigma, alpha = (0, *pair.sigma.images), (0, *pair.alpha.images)  # 1-based
    n = len(sigma) - 1
    seen = bytearray(n + 1)
    seen[n] = 1
    reached = [n]
    for e in reached:
        f = sigma[e]
        if not seen[f]:
            seen[f] = 1
            reached.append(f)
        f = alpha[e]
        if not seen[f]:
            seen[f] = 1
            reached.append(f)
    return len(reached) == n


def psi(theta: Permutation) -> Hypermap:
    """Split an indecomposable theta in S_{n+1} into a hypermap on n darts.

    sigma closes each interval between consecutive left-to-right maxima
    of theta into a cycle (the last interval runs to n after the value
    n+1 is removed); alpha is theta with n+1 deleted from its cycles.
    An indecomposable theta gives a transitive pair, so the result skips
    the check of ``Hypermap(...)``.
    """
    if theta.n < 2:
        raise SizeTooSmall("need size at least 2 to split off the top value")
    n = theta.n - 1
    top_image = theta.images[n]
    starts = _split_maxima(theta)
    alpha_images = tuple([v if v <= n else top_image for v in theta.images[:n]])
    return _hypermap(_interval_cycles(starts, n), _perm(alpha_images))


def _split_maxima(theta: Permutation) -> list[int]:
    """The left-to-right maxima of theta (size >= 2), all before its
    last position, in the running-maximum scan that checks that theta
    is indecomposable."""
    starts = []
    top = 0
    for i, v in enumerate(theta.images[:-1], 1):
        if v > top:
            top = v
            starts.append(i)
        if top == i:
            raise Decomposable(f"{theta!r} is decomposable")
    return starts


def _interval_cycles(starts: Sequence[int], n: int) -> Permutation:
    """The permutation of 1..n whose cycles are the intervals that begin
    at ``starts`` (increasing, starting at 1), each traversed increasingly."""
    images = list(range(2, n + 2))
    for a, end in zip(starts, (*starts[1:], n + 1)):
        images[end - 2] = a
    return _perm(tuple(images))


def satisfies_lemma1(pair: PermPair) -> bool:
    """Syntactic test for the canonical labeling.

    True when (i) every cycle of sigma is an interval of consecutive
    darts in increasing cyclic order, and (ii) below the root interval's
    left endpoint, the values that are right-to-left minima of the
    sequence alpha^{-1} are exactly the other intervals' left endpoints.
    A value v is such a minimum exactly when alpha(v) exceeds alpha(u)
    for every u < v, so (ii) is one scan of alpha up to that endpoint.
    """
    sigma = pair.sigma.images  # intervals start at 1 and after each dart that skips its successor
    endpoints = (1, *[e + 1 for e, v in enumerate(sigma[:-1], 1) if v != e + 1])
    if _interval_cycles(endpoints, len(sigma)).images != sigma:
        return False
    maxima = []  # the darts below i_k at which alpha reaches a new maximum
    top = 0
    for v, image in enumerate(pair.alpha.images[: endpoints[-1] - 1], 1):
        if image > top:
            maxima.append(v)
            top = image
    return tuple(maxima) == endpoints[:-1]


def canonical_rooted_form(h: PermPair) -> tuple[Hypermap, Permutation]:
    """The distinguished labeling of h's rooted-isomorphism class.

    Returns (canonical hypermap, phi) where phi fixes the root dart n
    and conjugating h through phi gives the canonical form.  The
    labeling is read off a deterministic scan (``_scan``): write the
    root's vertex cycle with n last, then repeatedly take the rightmost
    not yet examined dart e of the written word and, if alpha^{-1}(e)
    lies on an unwritten vertex, prepend that vertex's cycle starting
    at alpha^{-1}(e).  phi is the word itself: phi(k) = k-th dart written.
    """
    sigma, alpha = h.sigma.images, h.alpha.images
    rev, place = _scan(*_inverses(h))
    phi = tuple(reversed(rev))
    relabeled = [_perm(tuple([place[p[e - 1]] for e in phi])) for p in (sigma, alpha)]
    return _hypermap(*relabeled), _perm(phi)


def _inverses(h: PermPair) -> tuple[list[int], list[int]]:
    """``_scan``'s arguments for h: its 1-based inverses, with
    ``alpha_inv[0]`` set to sigma(n), where the scan enters the root vertex."""
    sigma, alpha = h.sigma.images, h.alpha.images
    sigma_inv, alpha_inv = [0] * (len(sigma) + 1), [0] * (len(sigma) + 1)
    for e in range(len(sigma)):
        sigma_inv[sigma[e]] = alpha_inv[alpha[e]] = e + 1
    alpha_inv[0] = sigma[-1]
    return sigma_inv, alpha_inv


def _scan(sigma_inv: list[int], alpha_inv: list[int]) -> tuple[list[int], list[int]]:
    """The canonical scan from 1-based inverses, ``alpha_inv[0]`` set to
    sigma(n): the written word, last dart first, and phi^{-1}, each
    dart's place.  Built reversed, prepending is appending, and the loop
    walks the examined prefix while writes append; a sentinel dart 0,
    examined first, enters the root vertex so that n is written first.
    Each vertex is written whole, back along sigma from its entry."""
    n = len(sigma_inv) - 1
    place = [0] * (n + 1)
    rev: list[int] = []
    k = n  # the place of the next dart written
    for e in chain((0,), rev):
        v = sigma_inv[alpha_inv[e]]
        while not place[v]:
            place[v] = k
            k -= 1
            rev.append(v)
            v = sigma_inv[v]
    if k:
        raise NotTransitive("scan exhausted before covering every dart")
    return rev, place


def _canonical_alpha(sigma_inv: list[int], alpha_inv: list[int], alpha: Sequence[int]):
    """The canonical alpha's one-line form and the left endpoint i_k of
    the root vertex, from one ``_scan``.  That vertex is written first,
    back along sigma from n, so it starts at the place of sigma(n)."""
    rev, place = _scan(sigma_inv, alpha_inv)
    return [place[alpha[e - 1]] for e in reversed(rev)], place[alpha_inv[0]]


def _theta(sigma_inv: list[int], alpha_inv: list[int], alpha: Sequence[int]) -> tuple[int, ...]:
    """psi_inverse's one-line form: n+1 put in at position i_k of the
    canonical alpha, and the value it displaces moved to the end."""
    a, ik = _canonical_alpha(sigma_inv, alpha_inv, alpha)
    return (*a[: ik - 1], len(a) + 1, *a[ik:], a[ik - 1])


def psi_inverse(h: PermPair) -> Permutation:
    """Rebuild the indecomposable permutation of S_{n+1} from a hypermap.

    One canonical scan relabels alpha alone and finds the root
    interval's left endpoint i_k; the value n+1 goes in at i_k of
    alpha's one-line form, and the displaced value moves to the end.
    """
    return _perm(_theta(*_inverses(h), h.alpha.images))


def rooted_isomorphic(h1: PermPair, h2: PermPair) -> bool:
    """Whether some root-fixing relabeling carries h1 onto h2."""
    if h1.n != h2.n:
        raise SizeMismatch(f"cannot compare sizes {h1.n} and {h2.n}")
    return canonical_rooted_form(h1)[0] == canonical_rooted_form(h2)[0]


def phi_bijection(p: Permutation) -> Permutation:
    """Involution of S_n exchanging cycle count with left-to-right maxima.

    Each indecomposable block of size >= 2 is split by psi, the two
    component permutations are swapped, and psi_inverse reassembles;
    1-point blocks stay fixed.  Indecomposability is preserved, so the
    blockwise extension is well defined, and the map squares to the
    identity because psi images are already canonically labeled.  In
    closed form: one running-maximum scan finds the blocks and their
    maxima, and each block costs one canonical scan (``_phi_block``).
    """
    images = p.images
    out: list[int] = []
    starts: list[int] = []  # the open block's maxima, counted from its start
    top = start = 0
    for i, v in enumerate(images, 1):
        if v > top:
            top = v
            starts.append(i - start)
        if top == i:  # a block ends: its positions and values are start+1..i
            block = images[start:i]
            if i - start > 1:
                swapped = _phi_block([w - start for w in block] if start else block, starts)
                block = [w + start for w in swapped] if start else swapped
            out += block
            start, starts = i, []
    return _perm(tuple(out))


def _phi_block(theta: Sequence[int], starts: list[int]) -> tuple[int, ...]:
    """The image under phi of an indecomposable block theta of size
    m = n+1 >= 2 with maxima ``starts``, from one scan of the swapped
    pair: psi's alpha (theta with m deleted) as vertices, the maxima
    intervals as edges, read back as ``psi_inverse`` reads its pair
    (``_theta``), from inverses built here directly.  The scan's
    ``NotTransitive`` stands in for the check of ``Hypermap(...)``."""
    m = len(theta)
    n = m - 1
    vertex_inv = [0] * (m + 1)
    for e, v in enumerate(theta, 1):
        vertex_inv[v] = e
    vertex_inv[theta[n]] = vertex_inv.pop()  # alpha^{-1} skips m
    edge_inv = list(range(-1, n))  # each dart back to the one before,
    for first, end in zip(starts, (*starts[1:], m)):
        edge_inv[first] = end - 1  # but an interval's first to its last
    edge_inv[0] = theta[n - 1] if theta[n - 1] < m else theta[n]  # alpha(n)
    return _theta(vertex_inv, edge_inv, _interval_cycles(starts, n).images)


def hypermap_to_text(h: PermPair) -> str:
    """Render as ``sigma=<cycles>;alpha=<cycles>`` with min-first cycles."""
    return (
        f"sigma={format_cycles(cycles(h.sigma, canonical=False))}"
        f";alpha={format_cycles(cycles(h.alpha, canonical=False))}"
    )


def hypermap_from_text(text: str) -> Hypermap:
    """Parse the ``sigma=...;alpha=...`` form produced by hypermap_to_text."""
    parts = text.strip().split(";")
    if len(parts) != 2 or not parts[0].startswith("sigma=") or not parts[1].startswith("alpha="):
        raise ParseError(f"expected 'sigma=<cycles>;alpha=<cycles>', got {text!r}")
    sigma = parse_permutation(parts[0][len("sigma=") :], notation="cycle")
    alpha = parse_permutation(parts[1][len("alpha=") :], notation="cycle")
    return Hypermap(sigma, alpha)


def hypermap_to_json_dict(h: PermPair) -> dict:
    """JSON-ready dict with min-first cycle lists for both permutations."""
    return {
        "n": h.n,
        "sigma": [list(c) for c in cycles(h.sigma, canonical=False).cycles],
        "alpha": [list(c) for c in cycles(h.alpha, canonical=False).cycles],
    }


def hypermap_from_json_dict(d: dict) -> Hypermap:
    """Inverse of hypermap_to_json_dict."""
    try:
        n = d["n"]
        if type(n) is not int:
            raise TypeError(f"n must be an int, got {n!r}")
        sigma = from_cycles([tuple(c) for c in d["sigma"]], n=n)
        alpha = from_cycles([tuple(c) for c in d["alpha"]], n=n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed hypermap object: {exc}") from exc
    return Hypermap(sigma, alpha)
