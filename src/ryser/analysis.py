"""Minimality reduction, non-isomorphism certification, and
classification of addable edges.

An extremal uniform hypergraph (k sides, k-uniform, cover number k-1)
is minimal when deleting any single edge drops the cover number.  The
reducer tries every edge once, in scan order, and deletes it when its
removal keeps the cover number.  It makes one `cover_number` call, for
the input, and then decides each edge at budget k-2: an edge is kept
when some (k-2)-set covers the rest.  Deleting one edge lowers the
cover number by at most one, and such a set cannot meet the tried
edge, so one decide run on the input's search instance settles the
edge; an edge for which such a set is already known needs no run.
Such sets come from the mirror sets of a linked extension, read from
the one pass `solver._mirror_misses`, whose one reader this is (the
cover search reads its tau >= r bound off the spec's `selection`), and
from the near misses that refuted runs scan (see `minimize`).
Deleting edges never raises the cover number, so an edge found
critical stays critical: the size-(k-2) cover known when it was tried
still covers the final hypergraph without it, and that is its
criticality certificate.

Addable-edge classification lists every candidate: one vertex of every
side of the extension hypergraph, or of every side but one with a
fresh vertex in its place, meeting every edge (a candidate with two or
more fresh vertices meets at most r-1 < tau existing vertices, so it
misses some edge and cannot keep the family intersecting).  It sorts
each candidate into: already present (an edge of the extension; only a
candidate without a fresh vertex can be), a twin of a selected edge
(type 1: F_i plus a final-side vertex), a twin of a mirrored selected
edge (type 2: F_i - s_i + v_i plus a side-i vertex), or a violation of
that pattern, testing type 1 for every i before type 2.  A candidate
holds one vertex of every side or that side's fresh vertex, so it is of
type 1 for i exactly when it contains F_i, and of type 2 exactly when
it contains F_i - s_i + v_i: one mask test per pair edge of
`ConstructionSpec.pair_edges`.

The candidates, for every fresh side and for none, come from one call
of `solver.covering_transversals`, which gives each side a fresh vertex
and lets a cover pick at most one of them.  The solver owns the search
and its id layout; this module reads only vertex ids of h.  A
plane-linked extension is the exception: one that `build_extension`
linked to the very spec it is classified against, whose base passes
`truncated_plane_order` and whose every F_i holds s_i and is not the
anchor edge S.  Its candidates are listed from the pair edges with no
search: every E1 edge; F_i plus each final-side vertex v_k, and plus
the fresh final-side vertex; F_i - s_i + v_i plus each side-i vertex,
and plus the fresh side-i vertex.  Each listed set is checked to meet
every edge by ORing its vertices' incidence masks, which raises
AssertionError on a miss, and the proof below says no candidate is
left out, so on these inputs the check tests this proof, not a fresh
search.  Every other input runs the enumeration: an extension read
from a file, which carries no spec; a spec with some F_i = S; a base
that is no plane.

The proof.  The base has r = q + 1 >= 4 sides of q vertices and q^2
edges, the lines, of one vertex per side; two vertices of different
sides lie on exactly one line, every vertex on q lines (see
`truncated_plane_order`).  For a set B of base vertices, t_E is
|E & B|.  When B holds one vertex per side, the lines through a vertex
y hold each vertex of B outside y's side once: sum t_E = q over them
for y not in B, and sum (t_E - 1) = q for y in B.  As no F_i is S,
F_i meets S in s_i alone, and F_i meets F_j, j != i, in one vertex off
S.

(a) If B, one vertex per side, meets every line that avoids a vertex s
of side k, then B is a line, or L - s + y for a line L through s and a
side-k vertex y != s.  With s in B, B meets every line, so each line
through a vertex outside B meets B once; some line through a vertex of
B meets B twice (over them sum (t_E - 1) = q > 0), so it lies in B and
is B.  With s not in B and B no line: the q lines through a vertex y !=
s of side k outside B avoid s, so each meets B once; of the q lines
through a vertex y outside B and outside side k, the q - 1 that avoid
s meet B, so line ys meets B at most once and each other line at most
twice.  So a line that avoids s meets B at most twice, or it would lie
in B.  Then for x in B outside side k, sum (t_E - 1) = q over x's
lines, and the q - 1 that avoid s give at most 1 each, so line xs
meets B twice; by the above it has no vertex outside B but s, so B
outside side k is xs - s.

(b) If B, one vertex per side, meets every line but S, it is a line:
by (a) with s = s_0, as L - s_0 + y misses the q - 2 >= 1 lines
through s_0 other than L and S.

(c) Every candidate is listed.  Let B be its base vertices.  If it
holds v_k and no fresh vertex, B meets every line that avoids s_k (the
E1 edges without v_k), F_k (E2) and each F_i - s_i, i != k (E3).  By
(a), B is a line through s_k other than S, which misses F_i - s_i: an
E1 edge; or a line through some s_j, j != k, that meets F_j - s_j, so
F_j: F_j + v_k; or L - s_k + y, which meets F_k only when L = F_k:
F_k - s_k + v_k + y.  With the fresh final-side vertex, B meets every
line but S and each F_i - s_i, so by (b) it is some F_j, as before.
With the fresh side-i vertex and v_k, B has q vertices, none in side
i, on q lines each, and meets all q^2 - q lines that avoid s_k.  If
k != i, the lines through s_k hold B's q - 1 vertices outside sides i
and k once each, and q more if s_k is in B, which would leave (q-1)^2
< q^2 - q for the others; so the others hold q^2 - q + 1, at most one
of them meets B twice, and they carry at most one of B's C(q, 2)
pairs, each on one line.  The lines through s_k, holding q - 1
vertices of B, carry at most C(q - 1, 2), and 1 + C(q - 1, 2) <
C(q, 2).  So k = i: each vertex of B lies on one line through s_i, so
every other line meets B once, and the lines through s_i carry all
C(q, 2) pairs of q vertices: one line L holds B, B = L - s_i, and it
meets F_i only when L = F_i.
"""

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from typing import Optional

from .construct import ConstructionSpec
from .errors import (
    EmptyHypergraphError,
    NonUniformError,
    NotExtremalError,
    TooLargeError,
    ViolationsPresentError,
)
from .hypergraph import PartiteHypergraph, degree_stats, is_intersecting, truncated_plane_order
from .solver import (
    DEFAULT_TIMEOUT,
    CoverResult,
    _Deadline,
    _mirror_misses,
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


def _mirror_seeds(h):
    """Minimize's first near-covers: the mirror sets of
    `solver._mirror_misses` that hold sides-2 vertices and miss exactly
    one edge of h, as {that edge: the set's global ids}, the first set
    kept per edge."""
    seeds = {}
    for side, anchor, mirror, *misses in _mirror_misses(h):
        if len(side) == h.num_sides - 2:
            for g, missed in zip((anchor, mirror), misses):
                j = missed.bit_length() - 1
                if missed.bit_count() == 1 and j not in seeds:
                    seeds[j] = tuple([g if x == anchor else x for x in side])
    return seeds


def minimize(
    h: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    order: str = "asc",
) -> MinimizationTrace:
    """Try each edge once (least index first; "desc" scans from the
    highest index instead) and delete it when the cover number stays at
    sides-1.  Makes one `cover_number` call, for the input, then decides
    each edge at budget sides-2, all in this process and within one
    `timeout`: from the pool of known near-covers when it holds the
    edge, with 0 nodes, and otherwise by one `cover_without_edge`
    decide run.  A deleted edge is certified by the input's minimum
    cover, which covers what is left; a kept edge by the set of size
    sides-2 that covers the other alive edges, which also covers the
    final hypergraph without that edge.  Any scan order reaches a
    minimal hypergraph, possibly a different one.

    The pool maps an edge to a (sides-2)-set that covers every alive
    edge but that one, so the edge is kept exactly as its run would
    keep it.  It starts with the mirror sets of a linked input that
    miss one edge each (`_mirror_seeds`), and takes in the near misses
    of each refuted run: sets that miss the deleted edge and one other,
    which then miss only the other among the alive edges.  Deletions
    only shrink the alive edges, so an entry stays true until its edge
    is tried."""
    if order not in ("asc", "desc"):
        raise ValueError(f"order must be 'asc' or 'desc', got {order!r}")
    if h.num_edges == 0:
        raise EmptyHypergraphError("minimization is undefined without edges")
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
    # edge -> a (k-2)-set covering every alive edge but that one
    pool = _mirror_seeds(h)
    scan = range(h.num_edges) if order == "asc" else range(h.num_edges - 1, -1, -1)
    for i in scan:
        if i in pool:
            witness, nodes = pool[i], 0
        else:
            near = {}
            witness, nodes = cover_without_edge(h, alive, i, target - 1, deadline, near)
            if witness is None:
                # i goes, so each near miss now misses only its key
                pool = near | pool
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
            mapped = {sum([1 << mapping[g] for g in row]) for row in a.edge_gids}
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
                                  # was kept) and the candidate enumeration (0 when the
                                  # candidates were listed from the pair edges)


def _listed_transversals(h, pairs):
    """The candidates of a plane-linked extension h, as
    `covering_transversals` gives them, listed from its spec's pair
    edges and each checked to meet every edge of h (see the module
    docstring)."""
    r, off = len(pairs), h.offsets
    final = range(off[r], off[r + 1])
    whole = {row for row in h.edge_gids if len(row) == r + 1}  # the E1 edges
    fresh = []
    for i, (f, shifted) in enumerate(pairs):
        f, shifted = tuple(map(h.gid, f)), tuple(map(h.gid, shifted))
        whole.update([f + (v,) for v in final])
        # shifted holds one vertex of each side but i, so side i is slot i
        whole.update([shifted[:i] + (y,) + shifted[i:] for y in range(off[i], off[i + 1])])
        fresh += [(r, f), (i, shifted)]
    listed = [(None, gids) for gids in sorted(whole)] + sorted(fresh)
    inc, full = h.incidence_masks, (1 << h.num_edges) - 1
    for _, gids in listed:
        met = 0
        for g in gids:
            met |= inc[g]
        if met != full:
            raise AssertionError(f"listed candidate {[h.vid(g) for g in gids]} misses an edge")
    return listed


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
    run in this process and share one `timeout`.  On a plane-linked
    extension, a timeout check and a checked list from the pair edges
    replace the enumeration (see the module docstring).  The
    candidates come grouped by fresh side, none first, and sorted
    within each group.
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
    if (h._spec is spec and truncated_plane_order(spec.base) is not None
            and all(spec.selection.holds) and spec.s_edge not in spec.f_edges):
        deadline.check(force=True)
        transversals, found = _listed_transversals(h, pairs), 0
    else:
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
