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
rooted-isomorphism class); ``psi_inverse`` canonicalizes and reads the
permutation back.  The number of cycles of alpha equals the number of
cycles of theta, and the number of cycles of sigma equals the number of
left-to-right maxima of theta.

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
with the number of left-to-right maxima.

``Hypermap(...)`` checks transitivity, ``psi``'s result included.  The
private ``_hypermap`` skips that check on three trusted paths: the
output of ``canonical_rooted_form``, whose scan raises ``NotTransitive``
unless it reaches every dart, ``phi_bijection``'s swap of ``psi``'s
pair, which joins the same darts, and ``maps.psi_prime``'s map, built
as the ``RootedMap`` subclass from a checked indecomposable pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    Decomposable,
    InternalMismatch,
    NotTransitive,
    ParseError,
    SizeMismatch,
    SizeTooSmall,
)
from .perm import (
    Permutation,
    _perm,
    blocks,
    concat_blocks,
    cycles,
    format_cycles,
    from_cycles,
    is_indecomposable,
    lr_maxima,
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
    sigma, alpha = pair.sigma.images, pair.alpha.images
    n = len(sigma)
    seen = bytearray(n + 1)
    seen[n] = 1
    reached = [n]
    for e in reached:
        f = sigma[e - 1]
        if not seen[f]:
            seen[f] = 1
            reached.append(f)
        f = alpha[e - 1]
        if not seen[f]:
            seen[f] = 1
            reached.append(f)
    return len(reached) == n


def psi(theta: Permutation) -> Hypermap:
    """Split an indecomposable theta in S_{n+1} into a hypermap on n darts.

    sigma closes each interval between consecutive left-to-right maxima
    of theta into a cycle (the last interval runs to n after the value
    n+1 is removed); alpha is theta with n+1 deleted from its cycles.
    """
    if theta.n < 2:
        raise SizeTooSmall("need size at least 2 to split off the top value")
    if not is_indecomposable(theta):
        raise Decomposable(f"{theta!r} is decomposable")
    n = theta.n - 1
    top_image = theta.images[n]
    alpha_images = tuple([v if v <= n else top_image for v in theta.images[:n]])
    return Hypermap(_interval_cycles(lr_maxima(theta), n), _perm(alpha_images))


def _interval_cycles(starts: tuple[int, ...], n: int) -> Permutation:
    """The permutation of 1..n whose cycles are the intervals that begin
    at ``starts`` (increasing, starting at 1), each traversed increasingly."""
    images = [0] * (n + 1)
    bounds = list(starts) + [n + 1]
    for a, end in zip(bounds, bounds[1:]):
        for i in range(a, end - 1):
            images[i] = i + 1
        images[end - 1] = a
    return _perm(tuple(images[1:]))


def _interval_endpoints(sigma: Permutation) -> tuple[int, ...] | None:
    """Left endpoints when every cycle of sigma is an interval of
    consecutive integers traversed increasingly; None otherwise."""
    images = sigma.images
    n = len(images)
    endpoints = []
    start = 1
    while start <= n:
        endpoints.append(start)
        j = start
        while j < n and images[j - 1] == j + 1:
            j += 1
        if images[j - 1] != start:
            return None
        start = j + 1
    return tuple(endpoints)


def satisfies_lemma1(pair: PermPair) -> bool:
    """Syntactic test for the canonical labeling.

    True when (i) every cycle of sigma is an interval of consecutive
    darts in increasing cyclic order, and (ii) below the root interval's
    left endpoint, the values that are right-to-left minima of the
    sequence alpha^{-1} are exactly the other intervals' left endpoints.
    A value v is such a minimum exactly when alpha(v) exceeds alpha(u)
    for every u < v, so (ii) is one scan of alpha up to that endpoint.
    """
    endpoints = _interval_endpoints(pair.sigma)
    if endpoints is None:
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
    labeling is read off a deterministic scan: write the root's vertex
    cycle with n last, then repeatedly take the rightmost not yet
    examined dart e of the written word and, if alpha^{-1}(e) lies on an
    unwritten vertex, prepend that vertex's cycle starting at
    alpha^{-1}(e).  phi is the word itself: phi(k) = k-th dart written.

    The word is built reversed, so prepending is appending, and the
    examined darts are always a prefix of the reversed word, so one
    index replaces the search for the rightmost unexamined dart.  Each
    vertex is written whole, back along sigma from its entry dart, and
    each dart's place in the word, phi^{-1}, is noted as it is written;
    that marks it written and relabels sigma and alpha: linear in n.
    """
    sigma, alpha = h.sigma.images, h.alpha.images
    n = len(sigma)
    sigma_inv, alpha_inv = [0] * (n + 1), [0] * (n + 1)
    for e in range(n):
        sigma_inv[sigma[e]] = alpha_inv[alpha[e]] = e + 1
    place = [0] * (n + 1)  # phi^{-1}: each written dart's place in the word
    rev: list[int] = []  # the written word, last dart first

    def write(v: int) -> None:  # v, then back along sigma to the entry dart
        while not place[v]:
            place[v] = n - len(rev)
            rev.append(v)
            v = sigma_inv[v]

    write(n)
    # the loop's own index walks the examined prefix while writes append
    for e in rev:
        u = alpha_inv[e]
        if not place[u]:
            write(sigma_inv[u])
    if len(rev) < n:
        raise NotTransitive("scan exhausted before covering every dart")
    phi = tuple(reversed(rev))
    relabeled = [_perm(tuple([place[p[e - 1]] for e in phi])) for p in (sigma, alpha)]
    return _hypermap(*relabeled), _perm(phi)


def _canonical_root(h: PermPair) -> tuple[Hypermap, int]:
    """The canonical form of h and the left endpoint of its root vertex."""
    can, _ = canonical_rooted_form(h)
    endpoints = _interval_endpoints(can.sigma)
    if endpoints is None:
        raise InternalMismatch("canonical form has a vertex that is not an interval")
    return can, endpoints[-1]


def psi_inverse(h: PermPair) -> Permutation:
    """Rebuild the indecomposable permutation of S_{n+1} from a hypermap.

    Canonicalizes first, then reinserts the value n+1 at the root
    interval's left endpoint i_k of alpha's one-line form, moving the
    displaced value to the end.
    """
    can, ik = _canonical_root(h)
    a = can.alpha.images
    n = can.n
    theta = a[: ik - 1] + (n + 1,) + a[ik:] + (a[ik - 1],)
    return _perm(theta)


def rooted_isomorphic(h1: PermPair, h2: PermPair) -> bool:
    """Whether some root-fixing relabeling carries h1 onto h2."""
    if h1.n != h2.n:
        raise SizeMismatch(f"cannot compare sizes {h1.n} and {h2.n}")
    c1, _ = canonical_rooted_form(h1)
    c2, _ = canonical_rooted_form(h2)
    return c1.sigma == c2.sigma and c1.alpha == c2.alpha


def phi_bijection(p: Permutation) -> Permutation:
    """Involution of S_n exchanging cycle count with left-to-right maxima.

    Each indecomposable block of size >= 2 is split by psi, the two
    component permutations are swapped, and psi_inverse reassembles;
    1-point blocks stay fixed.  Indecomposability is preserved, so the
    blockwise extension is well defined, and the map squares to the
    identity because psi images are already canonically labeled.
    """
    out = []
    for b in blocks(p):
        if b.n == 1:
            out.append(b)
        else:
            h = psi(b)
            out.append(psi_inverse(_hypermap(h.alpha, h.sigma)))
    return concat_blocks(out)


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
        n = int(d["n"])
        sigma = from_cycles([tuple(c) for c in d["sigma"]], n=n)
        alpha = from_cycles([tuple(c) for c in d["alpha"]], n=n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed hypermap object: {exc}") from exc
    return Hypermap(sigma, alpha)
