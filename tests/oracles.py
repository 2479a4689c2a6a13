"""Independent oracles the tests check the package against: subset and
product enumerations without pruning, the pairwise intersection-size
profile, the mirror map of the extension's cover argument and the edges
each mirror set misses by a walk of its vertices, the intersecting test
as a walk of every edge, the matching search without its closed form
for intersecting inputs, and a minimality reduction that searches every
edge."""

from collections import Counter
from itertools import combinations, product
from math import comb
from typing import Optional

from ryser.construct import ConstructionSpec
from ryser.errors import EmptyHypergraphError, TooLargeError
from ryser.hypergraph import PartiteHypergraph
from ryser.solver import MatchingResult, _Deadline, cover_without_edge


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


def mirror_misses_walk(h, spec: ConstructionSpec):
    """Per side j of the spec's base, as `solver._mirror_misses` yields
    it: the global ids of side j, the ids of s_j and v_j, and the masks
    of the edges that side j and side j with s_j swapped for v_j miss,
    each the complement of the OR of its vertices' incident-edge masks,
    built here from h's edges."""
    inc = {}
    for i, e in enumerate(h.edges):
        for v in e:
            inc[v] = inc.get(v, 0) | 1 << i
    full = (1 << len(h.edges)) - 1
    out = []
    for j, s in enumerate(spec.anchor_vertices()):
        side = [(j, p) for p in range(len(spec.base.sides[j]))]
        v = spec.mirror_vertex(j)
        missed = []
        for members in (side, [v if x == s else x for x in side]):
            met = 0
            for x in members:
                met |= inc.get(x, 0)
            missed.append(full & ~met)
        out.append((range(h.gid(side[0]), h.gid(side[-1]) + 1), h.gid(s), h.gid(v), *missed))
    return out


def intersecting_walk(h: PartiteHypergraph):
    """`hypergraph.is_intersecting` without its shortcuts for linked
    copies: per edge, the OR of the incident-edge masks of its vertices,
    built here from h's edges, names the edges it meets, and the first
    edge that misses a later one gives the first disjoint pair."""
    if not h.edges:
        raise EmptyHypergraphError("intersecting is undefined without edges")
    inc = {}
    for i, e in enumerate(h.edges):
        for v in e:
            inc[v] = inc.get(v, 0) | 1 << i
    full = (1 << len(h.edges)) - 1
    for i, e in enumerate(h.edges):
        meet = 0
        for v in e:
            meet |= inc[v]
        missed = (full ^ meet) >> (i + 1)
        if missed:
            return False, (i, i + (missed & -missed).bit_length())
    return True, None


def reference_matching(h: PartiteHypergraph, timeout=None) -> MatchingResult:
    """`solver.matching_number`'s branch and bound with no closed form for
    an intersecting input: a node carries the mask of the later edges
    disjoint from every edge it took and takes each in turn, lowest index
    first, while its matching plus that mask can beat the best; a child
    that cannot is one node, not entered."""
    full = (1 << h.num_edges) - 1
    apart = [full ^ meets for meets in h.edge_meets]
    deadline = _Deadline(timeout)
    best = []
    nodes = 0

    def rec(avail, cur):
        nonlocal best, nodes
        nodes += 1
        deadline.check()
        if len(cur) > len(best):
            best = list(cur)
        while avail and len(cur) + avail.bit_count() > len(best):
            low = avail & -avail
            avail ^= low
            i = low.bit_length() - 1
            rest = avail & apart[i]
            if len(cur) + 1 + rest.bit_count() <= len(best):
                nodes += 1
                continue
            cur.append(i)
            rec(rest, cur)
            cur.pop()

    rec(full, [])
    return MatchingResult(len(best), tuple(best), nodes)


def first_cover_reference(gid_lists, size_classes, closes, node, budget):
    """The first cover of at most `budget` vertices that a depth-first
    search with no bound finds below `node`, a (chosen, uncovered edge
    mask, excluded vertex mask) triple, or None.  It branches on the
    uncovered edge of the first class in `size_classes` that holds one,
    least index first, over that edge's vertices not excluded, in order;
    a child excludes its vertex's `closes` mask and its earlier
    siblings.  Returns (cover in pick order or None, whether the cover
    is reached through the first child at every level)."""
    inc = {}
    for i, gids in enumerate(gid_lists):
        for g in gids:
            inc[g] = inc.get(g, 0) | 1 << i

    def rec(chosen, uncovered, excluded, leftmost):
        if not uncovered:
            return chosen, leftmost
        if len(chosen) >= budget:
            return None
        branch = next(uncovered & cls for cls in size_classes if uncovered & cls)
        edge = gid_lists[(branch & -branch).bit_length() - 1]
        first_child = True
        for g in edge:
            if excluded >> g & 1:
                continue
            found = rec(chosen + (g,), uncovered & ~inc[g], excluded | closes[g],
                        leftmost and first_child)
            if found:
                return found
            first_child = False
            excluded |= 1 << g
        return None

    return rec(*node, True) or (None, False)


def reference_minimize(h: PartiteHypergraph, order: str = "asc"):
    """`minimize`'s scan with no pool of known near-covers: one
    `cover_without_edge` run per edge, at budget sides-2, deleting the
    edge when the run is refuted.  h must have cover number sides-1.
    Returns the deleted edge indices in scan order and the final
    hypergraph."""
    budget = h.num_sides - 2
    deadline = _Deadline(None)
    alive = (1 << h.num_edges) - 1
    deleted = []
    scan = range(h.num_edges) if order == "asc" else range(h.num_edges - 1, -1, -1)
    for i in scan:
        if cover_without_edge(h, alive, i, budget, deadline)[0] is None:
            deleted.append(i)
            alive &= ~(1 << i)
    kept = [i for i in range(h.num_edges) if alive >> i & 1]
    final = PartiteHypergraph(h.sides, [h.edges[i] for i in kept],
                              [h.edge_labels[i] for i in kept], name=h.name)
    return deleted, final
