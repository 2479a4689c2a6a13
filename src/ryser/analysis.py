"""Minimality reduction, non-isomorphism certification, and desk-scale
classification of addable edges.

An extremal uniform hypergraph (k sides, k-uniform, cover number k-1)
is minimal when deleting any single edge drops the cover number.  The
reducer tries every edge once, in scan order, and deletes it when its
removal keeps the cover number.  It makes one `cover_number` call, for
the input, and then one decide run per edge at budget k-2 on the
input's search instance.  Deleting one edge lowers the cover number by
at most one, and a (k-2)-set that covers the rest cannot meet the
tried edge, so that one run decides the edge.  Deleting edges never
raises the cover number, so an edge found critical stays critical: the
size-(k-2) cover found when it was tried still covers the final
hypergraph without it, and that scan result is its criticality
certificate.

Addable-edge classification enumerates every covering transversal of
the extension hypergraph with at most one fresh vertex (a candidate
with two or more fresh vertices meets at most r-1 < tau existing
vertices, so it misses some edge and cannot keep the family
intersecting) and sorts each candidate into: already present (an edge
of the extension; only a candidate without a fresh vertex can be), a
twin of a selected edge (type 1: F_i plus a final-side vertex), a twin
of a mirrored selected edge (type 2: F_i - s_i + v_i plus a side-i
vertex), or a violation of that pattern, testing type 1 for every i
before type 2.  A candidate holds one vertex of every side or that
side's fresh vertex, so it is of type 1 for i exactly when it contains
F_i, and of type 2 exactly when it contains F_i - s_i + v_i: one mask
test per pair edge of `ConstructionSpec.pair_edges`.  The candidates,
for every fresh side and for none, come from one call of
`solver.covering_transversals`, which gives each side a fresh vertex
and lets a cover pick at most one of them.  The solver owns the search
and its id layout; this module reads only vertex ids of h.
"""

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from typing import Optional

from .construct import ConstructionSpec
from .errors import (
    NonUniformError,
    NotExtremalError,
    TooLargeError,
    ViolationsPresentError,
)
from .hypergraph import PartiteHypergraph, degree_stats, is_intersecting
from .solver import (
    DEFAULT_TIMEOUT,
    CoverResult,
    _Deadline,
    cover_number,
    cover_without_edge,
    covering_transversals,
)


# --- minimality -----------------------------------------------------------


@dataclass(frozen=True)
class DeletedEdge:
    original_index: int
    vertices: tuple
    label: Optional[str]
    cert: CoverResult        # cover number right after this deletion: the
                             # input's witness, and the refuted run's nodes


@dataclass(frozen=True)
class KeptEdge:
    final_index: int
    original_index: int
    vertices: tuple
    label: Optional[str]
    cert: CoverResult        # cover number with this edge deleted


@dataclass(frozen=True)
class MinimizationTrace:
    initial: CoverResult
    final: PartiteHypergraph
    deleted: tuple
    kept: tuple

    @property
    def target_tau(self) -> int:
        return self.initial.tau


def minimize(
    h: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    order: str = "asc",
) -> MinimizationTrace:
    """Try each edge once (least index first; "desc" scans from the
    highest index instead) and delete it when the cover number stays at
    sides-1.  Makes one `cover_number` call, for the input, then one
    `cover_without_edge` decide run per edge at budget sides-2, all in
    this process and within one `timeout`.  A deleted edge is certified
    by the input's minimum cover, which covers what is left; a kept edge
    by the cover of size sides-2 found without it, which also covers the
    final hypergraph without that edge.  Any scan order reaches a
    minimal hypergraph, possibly a different one."""
    if order not in ("asc", "desc"):
        raise ValueError(f"order must be 'asc' or 'desc', got {order!r}")
    k = h.num_sides
    target = k - 1
    if h.uniformity != k:
        raise NonUniformError(f"expected a {k}-uniform hypergraph on {k} sides")
    ok, wit = is_intersecting(h)
    if not ok:
        raise NotExtremalError(f"input is not intersecting (edges {wit[0]}, {wit[1]})")

    deadline = _Deadline(timeout)
    initial = cover_number(h, upper_hint=target, timeout=deadline.remaining())
    if initial.tau != target:
        raise NotExtremalError(f"cover number is {initial.tau}, expected {target}")
    alive = (1 << h.num_edges) - 1
    deleted = []
    kept_certs = {}
    scan = range(h.num_edges) if order == "asc" else range(h.num_edges - 1, -1, -1)
    for i in scan:
        witness, nodes = cover_without_edge(h, alive, i, target - 1, deadline)
        if witness is None:
            cert = CoverResult(target, initial.witness, None, nodes)
            deleted.append(DeletedEdge(i, h.edges[i], h.edge_labels[i], cert))
            alive &= ~(1 << i)
        else:
            wit_vids = tuple(h.vid(g) for g in sorted(witness))
            kept_certs[i] = CoverResult(target - 1, wit_vids, None, nodes)

    orig = [i for i in range(h.num_edges) if alive >> i & 1]
    final = PartiteHypergraph._from_canonical(
        h.sides, tuple(h.edges[i] for i in orig),
        tuple(h.edge_labels[i] for i in orig), h.name,
    )
    kept = tuple(
        KeptEdge(pos, i, h.edges[i], h.edge_labels[i], kept_certs[i])
        for pos, i in enumerate(orig)
    )
    return MinimizationTrace(initial, final, tuple(deleted), kept)


# --- fingerprints & isomorphism -------------------------------------------


def degree_fingerprint(h: PartiteHypergraph) -> tuple:
    """Global degree multiset, sorted ascending.  Distinct fingerprints
    certify non-isomorphism."""
    return degree_stats(h).degrees


def fingerprint_str(fp) -> str:
    return " ".join(f"{d}^{sum(1 for _ in run)}" for d, run in groupby(fp)) or "(empty)"


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    side_perm: Optional[tuple]    # side i of a -> side_perm[i] of b
    vertex_map: Optional[tuple]   # sorted ((side,pos), (side,pos)) pairs


ISO_VERTEX_GUARD = 64


def exact_isomorphic(a: PartiteHypergraph, b: PartiteHypergraph) -> IsoResult:
    """Backtracking search for a vertex bijection mapping edges onto
    edges, where whole sides map to whole sides (side order may be
    permuted).  Degrees and codegrees prune the search; both are
    popcounts of `incidence_masks` (of one vertex's mask, and of two
    vertices' masks ANDed)."""
    if a.num_vertices + b.num_vertices > ISO_VERTEX_GUARD:
        raise TooLargeError(
            f"{a.num_vertices}+{b.num_vertices} vertices exceed the "
            f"{ISO_VERTEX_GUARD}-vertex isomorphism guard"
        )
    no = IsoResult(False, None, None)
    if a.num_sides != b.num_sides or a.num_edges != b.num_edges:
        return no
    if sorted(len(e) for e in a.edges) != sorted(len(e) for e in b.edges):
        return no
    # equal per-side degree multisets imply equal side sizes and degrees
    dsa, dsb = degree_stats(a), degree_stats(b)
    if sorted(dsa.side_degrees) != sorted(dsb.side_degrees):
        return no

    k = a.num_sides
    inc_a, inc_b = a.incidence_masks, b.incidence_masks
    off_a, off_b = a.offsets, b.offsets
    b_masks = set(b.edge_masks)
    mapping = {}               # a's global ids -> b's
    side_perm = [None] * k

    def assign_side(si):
        if si == k:
            mapped = {sum(1 << mapping[g] for g in map(a.gid, e)) for e in a.edges}
            return mapped == b_masks
        for tj in range(k):
            if tj in side_perm or dsb.side_degrees[tj] != dsa.side_degrees[si]:
                continue
            side_perm[si] = tj
            if assign_vertex(si, tj, off_a[si], 0):
                return True
            side_perm[si] = None
        return False

    def assign_vertex(si, tj, g, used):
        if g == off_a[si + 1]:
            return assign_side(si + 1)
        mask = inc_a[g]
        du = mask.bit_count()
        for w in range(off_b[tj], off_b[tj + 1]):
            wmask = inc_b[w]
            if used >> w & 1 or wmask.bit_count() != du:
                continue
            if any((mask & inc_a[x]).bit_count() != (wmask & inc_b[y]).bit_count()
                   for x, y in mapping.items()):
                continue
            mapping[g] = w
            if assign_vertex(si, tj, g + 1, used | 1 << w):
                return True
            del mapping[g]
        return False

    if assign_side(0):
        vertex_map = tuple(sorted((a.vid(g), b.vid(w)) for g, w in mapping.items()))
        return IsoResult(True, tuple(side_perm), vertex_map)
    return no


# --- addable-edge classification ------------------------------------------


@dataclass(frozen=True)
class ExtensionCandidate:
    fresh_side: Optional[int]   # side holding one fresh vertex, None for none
    vertices: tuple             # existing vertices, sorted
    kind: str                   # type1 | type2 | already_present | violation
    index: Optional[int]        # 1-based selected-edge number for type1/type2


@dataclass(frozen=True)
class ExtensionClassification:
    r: int
    pattern_guaranteed: bool      # the pattern guarantee needs r >= 5
    candidates: tuple
    counts: dict
    violations: tuple
    nodes: int = 0                # search nodes of the cover-number check (0 when its answer
                                  # was kept) and the candidate enumeration


def classify_extensions(
    h: PartiteHypergraph,
    spec: ConstructionSpec,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> ExtensionClassification:
    """Enumerate and classify every addable edge of the mixed-uniform
    extension hypergraph, up to fresh-vertex naming.

    A new edge must meet every existing edge; since the cover number is
    r, its existing-vertex part must be a covering transversal, leaving
    room for at most one fresh vertex.  The cover-number check and one
    enumeration, whose covers hold a fresh vertex of at most one side,
    run in this process and share one `timeout`.  The candidates come
    grouped by fresh side, none first, and sorted within each group.
    """
    r = spec.base.num_sides
    if h.num_sides != r + 1:
        raise NonUniformError(f"extension hypergraph must have {r + 1} sides")
    if r < 5:
        warnings.warn(
            f"uniformity r={r} < 5: candidates are classified but the "
            f"twin-pattern guarantee does not apply",
            stacklevel=2,
        )
    # a candidate is a twin exactly when it contains the pair edge
    pairs = spec.pair_edges()
    pair_masks = [(kind, i + 1, sum(1 << h.gid(v) for v in pair[j]))
                  for j, kind in enumerate(("type1", "type2")) for i, pair in enumerate(pairs)]
    present = set(h.edge_masks)

    candidates = []
    deadline = _Deadline(timeout)
    res = cover_number(h, upper_hint=r, timeout=deadline.remaining())
    if res.tau != r:
        raise NotExtremalError(f"cover number is {res.tau}, expected {r}")
    transversals, found = covering_transversals(h, deadline.remaining())
    vids = tuple(h.vertices())  # in global id order, so candidates list theirs sorted
    for side, gids in transversals:
        cand = sum(1 << g for g in gids)
        if side is None and cand in present:
            kind, index = "already_present", None
        else:
            kind, index = next(((k, i) for k, i, pair in pair_masks if not pair & ~cand),
                               ("violation", None))
        candidates.append(ExtensionCandidate(side, tuple([vids[g] for g in gids]), kind, index))
    counts = dict(Counter(c.kind for c in candidates))
    violations = tuple(c for c in candidates if c.kind == "violation")
    return ExtensionClassification(
        r=r,
        pattern_guaranteed=r >= 5,
        candidates=tuple(candidates),
        counts=counts,
        violations=violations,
        nodes=res.nodes_explored + found,
    )


# --- maximal closure description ------------------------------------------


@dataclass(frozen=True)
class TwinFamily:
    kind: str          # type1 | type2
    index: int         # 1-based selected-edge number
    fresh_side: int    # the side taking the infinitely many twin vertices
    fixed_vertices: tuple


@dataclass(frozen=True)
class MaximalClosureReport:
    r: int
    families: tuple    # 2r twin families describing the infinite closure


def maximal_closure_description(
    spec: ConstructionSpec,
    classification: ExtensionClassification,
) -> MaximalClosureReport:
    """Finite description of the infinite maximal extension of the
    spec's extension, given its `classify_extensions` result: that
    extension plus, for each selected edge, one twin family per pattern
    type.  No infinite object is materialized."""
    if classification.violations:
        raise ViolationsPresentError(
            f"{len(classification.violations)} addable edges fall outside the twin patterns"
        )
    r = spec.base.num_sides
    families = []
    for i, (f, shifted) in enumerate(spec.pair_edges()):
        families.append(TwinFamily("type1", i + 1, r, f))
        families.append(TwinFamily("type2", i + 1, i, shifted))
    return MaximalClosureReport(r, tuple(families))
