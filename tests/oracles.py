"""Independent oracles the tests check the package against: subset and
product enumerations without pruning, the pairwise intersection-size
profile, and the mirror map of the extension's cover argument."""

from collections import Counter
from itertools import combinations, product
from math import comb
from typing import Optional

from ryser.construct import ConstructionSpec
from ryser.errors import EmptyHypergraphError, TooLargeError
from ryser.hypergraph import PartiteHypergraph


def brute_force_cover_oracle(h: PartiteHypergraph, limit: Optional[int] = None) -> int:
    """Independent tau oracle: exhaustive subset enumeration in size
    order.  Guarded to n <= 24 vertices unless a small limit keeps the
    subset count under 10^7."""
    if h.num_edges == 0:
        raise EmptyHypergraphError("cover number is undefined without edges")
    n = h.num_vertices
    lim = n if limit is None else min(limit, n)
    if n > 24:
        if limit is None or sum(comb(n, i) for i in range(lim + 1)) > 10 ** 7:
            raise TooLargeError(f"{n} vertices is past the brute-force guard")
    masks = h.edge_masks
    bits = [1 << g for g in range(n)]
    for s in range(lim + 1):
        for combo in combinations(range(n), s):
            m = 0
            for g in combo:
                m |= bits[g]
            if all(e & m for e in masks):
                return s
    raise TooLargeError(f"no cover of size <= {lim} found within the limit")


def enumerate_candidates_brute(h):
    """Pruning-free cross-check: every (fresh_side, transversal) choice
    via full cartesian products, filtered by a direct cover test."""
    out = []
    masks = h.edge_masks
    gid = h.gid
    for fresh in [None] + list(range(h.num_sides)):
        active = [s for s in range(h.num_sides) if s != fresh]
        for combo in product(*[[(s, p) for p in range(len(h.sides[s]))] for s in active]):
            m = 0
            for v in combo:
                m |= 1 << gid(v)
            if all(e & m for e in masks):
                out.append((fresh, tuple(sorted(combo))))
    return out


def intersection_size_profile(h: PartiteHypergraph) -> Counter:
    """Multiset of |e_i ∩ e_j| over all unordered edge pairs."""
    masks = h.edge_masks
    m = len(masks)
    out = Counter()
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            out[(mi & masks[j]).bit_count()] += 1
    return out


def cover_mirror(cover, spec: ConstructionSpec) -> frozenset:
    """Map a vertex set of the extension back to the base: replace each
    mirror vertex v_i by its anchor vertex s_i and drop the final side.

    When the input covers the extension, the output covers the base
    minus the anchor edge.
    """
    r = spec.base.num_sides
    anchor = spec.anchor_vertices()
    out = set()
    for s, p in cover:
        if s == r:
            out.add(anchor[p])
        else:
            out.add((s, p))
    return frozenset(out)
