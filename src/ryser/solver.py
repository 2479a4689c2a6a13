"""Exact cover number and matching number with certificates.

The cover search is exhaustive branch-and-bound over bitmask edges:
raise the size budget from the lower bound (or the hint) until a run
finds a cover, then lower it below that cover until a run fails or
the cover is one more than the last refuted budget; within a budget,
branch on the uncovered edge of minimum free size, over its vertices in
global order, excluding earlier branch vertices deeper in the tree so
every cover is generated exactly once.  A failed budget-b run is the
proof that no cover of size <= b exists, which makes the reported tau
exact.  The lower bound, at the root and at every node, is the
degree-sum bound of hitting set: with k picks left, a node is pruned
when the k largest uncovered-edge degrees among the vertices not yet
excluded sum to less than the number of uncovered edges, or when some
uncovered edge has no such vertex.  Degrees are read by popcount from
per-vertex masks of incident edges.  On intersecting inputs, where no
two edges are disjoint, this is the bound that prunes; a disjoint-edge
count never exceeds 1 there.

A node with k >= 2 picks left ranks its free vertices by degree,
walking only the vertices its parent ranked.  The ranking holds the
node's exact degrees, largest first, with its excluded vertices
dropped, so the node's own test reads it: the first k degrees must sum
to the number of uncovered edges, and a dead edge leaves no ranking.
With k >= 3 the node then tests each branch child's bound before
entering it: the parent's degrees bound the child's from above, so a
child whose uncovered edges outnumber the sum of the node's k-1
largest degrees fails at once, and otherwise the child test walks the
ranking, recounts each vertex's degree on the child's uncovered edges,
and stops once its k-1 largest are at least the next parent degree.  A
child that passes runs the full test, dead-edge check included.  A
node with one pick left scans its children, the free vertices of its
branch edge, once, in O(r): a leaf meets every uncovered edge.  With
no leaf the node fails; otherwise each child counts as a node, up to
the first leaf of a decide run.  So a node with two picks left enters
its children untested.  A refuted child counts as one node, so every
prune, witness, enumeration and node count is that of a search that
enters every child.

A degree-1 vertex is dominated by any other vertex of its edge: swapping
it for that vertex leaves a cover of no greater size.  The instance
builder finds them in its one walk of the incidence masks, a degree-1
mask naming its edge by its one bit.  Decide runs therefore start with
the dominated vertices excluded (in an edge made only of degree-1
vertices, all but the first); this keeps tau and every refutation, and
drops the tail vertices `uniformize` adds.  Enumerations exclude none,
so they still return every minimum cover.  An edge's free size, the
branching key, is its size less its dominated vertices, fixed per call:
a uniformized edge is then branched on when its mixed original would
be, and the search is the mixed extension's.

One decide result is kept on each hypergraph and answers every later
decide call, whatever its `upper_hint`, with 0 nodes explored: the
witness does not depend on the hint.  The branching order does not
depend on the budget, and the degree-sum bound is monotone in the picks
left and sound.  So a run at budget b >= tau enters every node of the
budget-tau run and reaches no size-tau cover that run does not; if its
first cover has size tau, that is the budget-tau run's first cover.
The loop ends on such a run, whatever budget it starts from.

A hypergraph that `uniformize` made records its source, and its decide
calls are answered from the source: the source's vertices keep their
(side, pos), every cover of the source covers it, and swapping each
tail of one of its covers for another vertex of the tail's edge gives
a cover of the source, no larger.  Since the tails are dominated, its
own decide search would be the source's.  An enumeration call takes
tau from the kept answer, searching for it and keeping it first when
there is none, then runs only the enumeration, on its own instance,
whose incidence masks come from a walk of the copy's own edges.
`matching_number` reads the source's answers.

A first decide call answers without a search when its input passes
`hypergraph.truncated_plane_order`, or is an extension that
`construct.build_extension` made, which records its spec, whose base
passes it and whose every F_j holds s_j.  The answer is the search's
first path, known without walking it: from the root, the first free
vertex of each branch edge, until the edges are covered.  When that
path covers within the budget it is the run's first cover, with one
node per pick and one for the leaf, as the node and child tests are
sound and so prune no node on a path that completes within its picks.
The call keeps it and builds no search instance.

On an input that passes the test, of order q, every side has q
vertices, every edge r = q + 1, one per side, and every vertex degree
q, in q^2 edges (see `truncated_plane_order`).  As q >= 3, no vertex
has degree 1, so none is dominated.  Every edge has size r, so the
branch edge is always the lowest-index uncovered edge.  Each edge lists
its side-0 vertex first, and while every pick is in side 0 that vertex
is free exactly while the edge is uncovered.  So each pick is a side-0
vertex not picked before, and after q picks the path is side 0, which
covers.  The degree-sum bound is q, as q^2 edges have degree q each,
so tau = q, found in q + 1 nodes at any budget from q: the budget
loop's first run.

On an extension whose base passes the test, tau >= r when none of 2r
mirror sets covers it, by the mirror argument (see `build_extension`).
Each set is side j of the base, or side j with s_j swapped for v_j.
On an r-uniform base every edge of the extension holds one old side-j
vertex, except E3(j) when F_j holds s_j, so side j misses E3(j)
exactly when F_j holds s_j, and then the swapped set misses the E2
edge F_j, which holds s_j and not v_j: no mirror set covers exactly
when every F_j holds s_j, which the spec's `selection` says in O(r^2)
operations on spec data.  Then tau = r, since side j and any vertex of
E3(j) cover the extension.  With q >= 3 no vertex has degree 1, so the
root excludes nothing; the size-r edges, E2 and E3, come before the
size-(r+1) E1 edges; and every edge lists a side-0 vertex first except
E3(1), which lists F_1's side-1 vertex x.  So every pick is in side 0
plus x, a set of r vertices that covers, and since tau >= r the path is
exactly that set, in r + 1 nodes.  The call reads none of the
extension's rows or masks.

In both cases tau, the witness and the node count are those of the
budget loop from the bound that proves tau, and every enumeration is
that of the full loop.  A uniformized extension is answered through its
source.  Every other input, a linked extension with an F_j that misses
s_j or a base that is no plane among them, builds its instance and runs
the budget loop from the degree-sum bound, as an unlinked copy does.
`_mirror_misses` yields each mirror set with the mask of the edges it
misses, read from `selection` and the masks of s_j and v_j; its one
reader is `minimize`'s first near-covers (below).  A spec whose base is
not r-uniform has no mirror sets.

A branch child also excludes its vertex's `closes` mask, in a cover
instance the vertex alone.  The candidate edges of a hypergraph with k
sides, one vertex from every side or a fresh vertex in place of one
side's, meeting every edge, are the minimum covers of one enumeration on
`_candidate_instance`, which `covering_transversals` runs and decodes:
the edges, then per side one edge holding the whole side and a fresh
vertex of its own, branched on after every real edge.  Its budget is k,
which is exact: a k-cover meets each of the k disjoint side edges once,
so a pick closes its side edge, and a pick of a fresh vertex closes the
other fresh vertices too.

The matching search carries the mask of the later edges disjoint from
every edge taken so far and takes each in turn, lowest index first, so
it recurses nu + 1 deep; its bound is the popcount of that mask.  An
edge's disjoint edges are the complement of its cached `edge_meets`.
Like the cover search, it tests each child's bound in the parent and
counts a child that fails as one node without entering it.  When no
two edges are disjoint, the answer is the search's without running it:
the root takes edge 0, then refutes each later edge but the last as
one node, so nu = 1 with witness (0,) in max(m, 2) nodes.  That test
reads the input's cached `is_intersecting` answer before any
disjoint-edge mask is built, so an extension of a plane base known to
be intersecting answers it from its spec's `selection` and builds no
`edge_meets` when that proves it intersecting (see `hypergraph`).

`cover_without_edge` decides whether deleting one edge lowers the
cover number with one decide run on the hypergraph's instance, from a
root node that drops the edge and excludes its vertices.  `minimize`
calls it only for an edge with no known near-cover, a set of the run's
budget that covers every alive edge but that one: such a set answers
the trial without a search.  A linked extension's mirror sets of
sides-2 vertices that miss one edge each, read from `_mirror_misses`,
are near-covers from the start.
A run given a dict also records its near misses, budget-sets that
cover all but one of its uncovered edges, which its one-pick nodes scan
anyway; once the run is refuted and its edge deleted, each of them is
a near-cover of the edge it misses.
`cover_number`, `covering_transversals` and `cover_without_edge` are
the search's only callers; no other module reads an instance or
decodes its ids.

All tie-breaking is by smallest global vertex index / smallest edge
index, so identical inputs give identical certificates.  Every search
runs in the calling process.
"""

import time
from dataclasses import dataclass
from heapq import heappush, heapreplace
from itertools import accumulate
from typing import NamedTuple, Optional

from .errors import EmptyHypergraphError, NonUniformError, SolverTimeout
from .hypergraph import PartiteHypergraph, truncated_plane_order

DEFAULT_TIMEOUT = 60.0
_TIMEOUT_CHECK_EVERY = 256


@dataclass(frozen=True)
class CoverResult:
    tau: int
    witness: tuple                      # sorted (side, pos) vertices
    all_min_covers: Optional[tuple]     # sorted tuple of sorted vertex tuples
    nodes_explored: int                 # search statistic, not in the certificate; 0 if kept


@dataclass(frozen=True)
class MatchingResult:
    nu: int
    witness: tuple                      # edge indices, ascending
    nodes_explored: int


@dataclass(frozen=True)
class RatioReport:
    r: int
    tau: int
    nu: int
    ratio: float
    is_ryser_extremal: bool


def _ranked_degrees(candidates, uncovered, excluded):
    """(degree, vertex bit, incident-edge mask) of every vertex of
    `candidates` not in `excluded` that meets `uncovered`, largest degree
    first, where a degree counts uncovered edges.  None when some
    uncovered edge has no such vertex.  `candidates` lists (any, vertex
    bit, incident-edge mask) and holds every vertex that may meet
    `uncovered`: the whole incidence list, or the ranking of a node
    whose uncovered edges include these."""
    ranked = []
    reach = 0
    for _, bit, inc in candidates:
        if not bit & excluded:
            hit = inc & uncovered
            if hit:
                reach |= hit
                ranked.append((hit.bit_count(), bit, inc))
    if reach != uncovered:
        return None
    ranked.sort(reverse=True)
    return ranked


def _degree_sum_fits(ranked, uncovered, excluded, picks):
    """The degree-sum bound of hitting set: whether the `picks` largest
    degrees on `uncovered`, over the vertices of `ranked` not in
    `excluded`, sum to at least the number of uncovered edges.  `ranked`
    lists (degree bound, vertex bit, incident-edge mask), largest bound
    first, each bound at least the vertex's degree on `uncovered`; the
    walk stops once the kept degrees are all at least the next bound,
    since no later vertex can then displace one of them.  The search
    calls it with picks >= 2: a node with one pick left scans its branch
    edge instead."""
    need = uncovered.bit_count()
    if not need:
        return True
    kept = []  # min-heap of the `picks` largest degrees so far
    room = picks
    total = 0
    for bound, bit, inc in ranked:
        if not room and kept[0] >= bound:
            break
        if bit & excluded:
            continue
        d = (inc & uncovered).bit_count()
        if room:
            room -= 1
            heappush(kept, d)
            total += d
        elif d > kept[0]:
            total += d - heapreplace(kept, d)
        else:
            continue
        if total >= need:
            return True
    return False


class _Deadline:
    __slots__ = ("at", "ticks")

    def __init__(self, seconds):
        self.at = None if seconds is None else time.monotonic() + seconds
        self.ticks = 0

    def remaining(self):
        return None if self.at is None else self.at - time.monotonic()

    def check(self, force=False):
        if self.at is None:
            return
        self.ticks += 1
        if force or self.ticks % _TIMEOUT_CHECK_EVERY == 0:
            if time.monotonic() > self.at:
                raise SolverTimeout("cover search exceeded its wall-clock budget")


class _Instance(NamedTuple):
    """The static search data of one hypergraph."""
    gid_lists: tuple     # per edge, the global ids of its vertices in order
    incidence: tuple     # per global id, (degree, vertex bit, mask of the edges through it)
    size_classes: tuple  # masks of the edges of each branching class, in branching order
    dominated: int       # mask of the vertices a decide run never picks
    closes: tuple        # per global id, the mask of the vertices a pick of it excludes


def _instance(h):
    """The cover search instance of h, built on first use and kept on h."""
    if h._search is None:
        h._search = _build_instance(h)
    return h._search


def _build_instance(h):
    """h's cover search instance, with its size classes, in branching
    order, and its dominated vertex mask from one walk of its incidence
    masks."""
    # A degree-1 vertex covers only its own edge, the one bit of its
    # mask, so any other vertex of that edge does at least as well.  An
    # edge of degree-1 vertices keeps its first (edges list their
    # vertices in global order, and the vertices are walked in it).
    inc = h.incidence_masks
    ones = {}  # edge index -> its degree-1 vertices
    for g, mask in enumerate(inc):
        if mask.bit_count() == 1:
            ones.setdefault(mask.bit_length() - 1, []).append(g)
    free = [len(gids) for gids in h.edge_gids]
    dominated = 0
    for i, tails in ones.items():
        if len(tails) == free[i]:
            del tails[0]
        free[i] -= len(tails)
        for g in tails:
            dominated |= 1 << g
    classes = {}
    bit = 1
    for size in free:
        classes[size] = classes.get(size, 0) | bit
        bit <<= 1
    bits = tuple([1 << g for g in range(len(inc))])
    entries = tuple([(mask.bit_count(), bit, mask) for bit, mask in zip(bits, inc)])
    return _Instance(h.edge_gids, entries, tuple(classes[size] for size in sorted(classes)),
                     dominated, bits)


def _degree_bound(h):
    """The degree-sum bound of the node test at the root: the least k
    whose k largest degrees sum to at least the edge count."""
    degrees = sorted([mask.bit_count() for mask in h.incidence_masks], reverse=True)
    return next(k for k, total in enumerate(accumulate(degrees), 1) if total >= h.num_edges)


def _candidate_instance(h):
    """The instance whose k-covers, for k the number of sides, are h's
    candidate edges: one vertex of every side, or of every side but one
    with that side's fresh vertex in its place, meeting every edge of h.
    Ids 0..n-1 are h's vertices and n+s is the fresh vertex of side s,
    which meets no edge of h.  Edge m+s, side s with its fresh vertex,
    follows h's m edges, in a last branching class."""
    off, n, m, k = h.offsets, h.num_vertices, h.num_edges, h.num_sides
    gid_lists = list(h.edge_gids)
    classes = [sum(1 << i for i, gids in enumerate(gid_lists) if len(gids) == size)
               for size in sorted({len(gids) for gids in gid_lists})]
    classes.append(((1 << k) - 1) << m)
    inc = list(h.incidence_masks)
    closes = [0] * n
    fresh = ((1 << k) - 1) << n
    for s in range(k):
        gids = range(off[s], off[s + 1])
        gid_lists.append((*gids, n + s))
        side = ((1 << gids.stop) - 1) ^ ((1 << gids.start) - 1) | 1 << (n + s)
        for g in gids:
            inc[g] |= 1 << (m + s)
            closes[g] = side
        inc.append(1 << (m + s))
        closes.append(side | fresh)
    entries = tuple((mask.bit_count(), 1 << g, mask) for g, mask in enumerate(inc))
    return _Instance(tuple(gid_lists), entries, tuple(classes), 0, tuple(closes))


def _branch_edge(size_classes, uncovered):
    """The uncovered edge of smallest (free size, index)."""
    for cls in size_classes:
        branch = uncovered & cls
        if branch:
            return (branch & -branch).bit_length() - 1


def _budget_search(inst, budget, collect, deadline, node=None, near=None):
    """Exhaustive search for covers of size <= budget below `node`, a
    (chosen, uncovered edge mask, excluded vertex mask) triple that
    defaults to the root.  The root of a decide run excludes the
    dominated vertices; that of an enumeration excludes none, so that
    every minimum cover is found.  Returns (first_found, solutions, nodes).
    The deadline is checked on entry, so a run never starts past it.

    A node with three or more picks left tests each branch child's
    bound before entering it, and one with a single pick left scans its
    children without entering them; a refuted child counts as one node,
    so the tree, the order and the node count are those of a search that
    enters every child.

    `near`, a dict, collects near misses: a one-pick node with no leaf
    records, for each child g whose pick would leave a single edge j
    uncovered, {j: chosen + (g,)} unless j is there already.  Each such
    set covers every edge uncovered at `node` but j, and misses j."""
    deadline.check(force=True)
    gid_lists, incidence, size_classes, dominated, closes = inst
    if node is None:
        node = ((), (1 << len(gid_lists)) - 1, 0 if collect else dominated)
    sols = [] if collect else None
    nodes = 0

    def rec(chosen, uncovered, excluded, candidates=incidence):
        # the cover a decide run finds below this node, else None
        nonlocal nodes
        nodes += 1
        deadline.check()
        if not uncovered:
            if collect:
                sols.append(chosen)
                return None
            return chosen
        picks = budget - len(chosen)
        if picks <= 0:
            return None
        branch = gid_lists[_branch_edge(size_classes, uncovered)]
        if picks == 1:
            # the children are the free vertices of the branch edge
            free = [g for g in branch if not incidence[g][1] & excluded]
            leaves = [g for g in free if incidence[g][2] & uncovered == uncovered]
            if not leaves:
                if near is not None:
                    for g in free:
                        rest = uncovered & ~incidence[g][2]
                        if not rest & (rest - 1):
                            near.setdefault(rest.bit_length() - 1, chosen + (g,))
                return None
            if not collect:
                nodes += free.index(leaves[0]) + 1
                return chosen + (leaves[0],)
            nodes += len(free)
            sols.extend([chosen + (g,) for g in leaves])
            return None
        # The ranking holds this node's exact degrees, largest first,
        # so its own bound is the sum of the first `picks`, and `tops`,
        # that of the first picks - 1, bounds every child's.
        ranked = _ranked_degrees(candidates, uncovered, excluded)
        if ranked is None:
            return None
        tops = sum([d for d, _, _ in ranked[:picks - 1]])
        if tops + (ranked[picks - 1][0] if len(ranked) >= picks else 0) < uncovered.bit_count():
            return None
        acc = excluded
        for g in branch:
            _, bit, inc = incidence[g]
            if not bit & acc:
                rest = uncovered & ~inc
                closed = acc | closes[g]
                if picks > 2 and (tops < rest.bit_count()
                                  or not _degree_sum_fits(ranked, rest, closed, picks - 1)):
                    nodes += 1  # the child, refuted without being entered
                elif (found := rec(chosen + (g,), rest, closed, ranked)) is not None:
                    return found
            acc |= bit
        return None

    first = rec(*node)
    if collect and sols:
        first = sols[0]
    return first, sols, nodes


def _mirror_misses(h):
    """One pass over the 2r mirror sets of an extension that
    `build_extension` linked to its spec, or of a uniformized copy of
    one, in h's global ids: per side j of the spec's base, side j, and
    side j with s_j swapped for v_j.  Yields, per side, its ids, the ids
    of s_j and v_j, the mask of the edges side j misses, and that of the
    edges the swapped set misses; yields nothing unless
    `(h._source or h)._spec` has an r-uniform base.  A uniformized copy
    keeps every (side, pos) and the edge order, and puts its tails after
    them.

    No set's masks are ORed.  Every edge of h holds exactly one old
    side-j vertex, except E3(j), the edge m - r + j, when F_j holds s_j,
    as the spec's `selection` says: an E1 or E2 edge holds a base edge,
    and F_i - s_i + v_i loses only its side-i vertex.  So side j misses
    that E3(j) alone, or nothing, and the swapped set, as E3(j) holds
    v_j, the edges through s_j that v_j is not on."""
    spec = (h._source or h)._spec
    if spec is None or spec.base.uniformity != spec.r:
        return
    r, inc, off, m = spec.r, h.incidence_masks, h.offsets, h.num_edges
    sides = spec.base.sides
    for j, ((_, pos), held) in enumerate(zip(spec.anchor_vertices(), spec.selection.holds)):
        anchor = off[j] + pos  # s_j = (j, pos)
        mirror = off[r] + j  # v_j, `spec.mirror_vertex(j)`, is vertex j of the final side
        yield (range(off[j], off[j] + len(sides[j])), anchor, mirror,
               1 << (m - r + j) if held else 0, inc[anchor] & ~inc[mirror])


def cover_number(
    h: PartiteHypergraph,
    enumerate_all: bool = False,
    upper_hint: Optional[int] = None,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    jobs: int = 1,
) -> CoverResult:
    """Exact minimum vertex cover with witness; optionally every minimum
    cover.  Every search runs in this process.  `jobs` selects nothing;
    it raises ValueError below 1 and is kept only because the benchmark
    in perfbench/ passes it.  Raises SolverTimeout if the wall-clock
    budget runs out.

    A decide call (no `enumerate_all`) is answered once per hypergraph:
    its result is kept on h, and every later decide call returns it at
    once, whatever its `upper_hint` or timeout, with `nodes_explored` 0.
    A first decide call, after its timeout check, answers without a
    search when h passes `truncated_plane_order`, or when h is an
    extension that `build_extension` linked to its spec, whose base
    passes it and whose every F_j holds s_j (the spec's `selection`):
    tau is q or r, the witness side 0, plus F_1's side-1 vertex on an
    extension, and `nodes_explored` tau + 1, read off the search's first
    path (see the module docstring), with no search instance and no
    mirror set.  Every other first decide call builds h's instance
    and runs the budget loop, whose hint only sets its first budget.  An
    enumeration call takes tau from the kept result, searching for it
    first when there is none, then runs only the budget-tau enumeration
    on h, which is not kept.  A call that times out before tau is known
    keeps nothing.  On a hypergraph that `uniformize` made, the decide
    answer is kept on and read from the source, whose cover number is
    the same and whose minimum covers are minimum covers of it (see
    `uniformize`); its own decide search would be the source's, since
    the tails it adds are dominated."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if h.num_edges == 0:
        raise EmptyHypergraphError("cover number is undefined without edges")
    source = h._source or h
    deadline = _Deadline(timeout)
    nodes_total = 0
    if source._decided is None:
        deadline.check(force=True)
        spec = source._spec
        base = source if spec is None else spec.base
        if truncated_plane_order(base) is not None and (spec is None or all(spec.selection.holds)):
            # the search's first path, side 0, with the side-1 vertex of
            # E3(1), F_1 - s_1 + v_1, on a linked extension, known without
            # walking it (see the module docstring)
            first = (*range(len(source.sides[0])),)
            if spec is not None:
                first += (source.offsets[1] + base.edges[spec.f_edges[0]][1][1],)
            nodes_total = len(first) + 1
        else:
            lb = _degree_bound(source)  # the degree-sum bound of the node test
            inst = _instance(source)
            n = source.num_vertices
            budget = min(max(lb, upper_hint) if upper_hint is not None else lb, n)
            refuted = lb - 1  # sizes below lb are impossible by the bound
            # Climb until a run finds a cover, then shrink it until a run
            # fails or it is one more than the largest refuted budget.
            while True:
                first, _, nodes = _budget_search(inst, budget, False, deadline)
                nodes_total += nodes
                if first is not None:
                    break
                refuted = budget
                budget += 1
                if budget > n:
                    raise AssertionError("no cover found over the full vertex set")
            while len(first) > refuted + 1:
                smaller, _, nodes = _budget_search(inst, len(first) - 1, False, deadline)
                nodes_total += nodes
                if smaller is None:
                    break
                first = smaller
        source._decided = CoverResult(len(first), tuple(map(source.vid, sorted(first))), None, 0)
    kept = source._decided
    if not enumerate_all:
        return CoverResult(kept.tau, kept.witness, None, nodes_total)
    first, sols, nodes = _budget_search(_instance(h), kept.tau, True, deadline)
    all_covers = tuple(sorted(
        tuple(h.vid(g) for g in sorted(sol)) for sol in sols
    ))
    return CoverResult(kept.tau, tuple(h.vid(g) for g in sorted(first)), all_covers,
                       nodes_total + nodes)


def covering_transversals(h: PartiteHypergraph, timeout: Optional[float] = DEFAULT_TIMEOUT):
    """The candidate edges of h, one vertex of every side, or of every
    side but one with that side's fresh vertex in its place, meeting
    every edge, as (fresh side or None, ascending global ids of h's
    vertices): None first, then by side and ids.  Returns them with the
    node count of the one enumeration that finds them."""
    n = h.num_vertices
    _, sols, nodes = _budget_search(_candidate_instance(h), h.num_sides, True, _Deadline(timeout))
    keyed = []
    for sol in sols:
        gids = sorted(sol)
        keyed.append((gids.pop() - n if gids[-1] >= n else -1, tuple(gids)))
    return [(None if side < 0 else side, gids) for side, gids in sorted(keyed)], nodes


def cover_without_edge(h, alive, edge, budget, deadline, near=None):
    """One decide run at `budget` for a cover of the `alive` edges (a
    mask) of h other than `edge` that avoids the vertices of `edge` and
    the dominated ones, within the caller's `_Deadline`.  Returns (the
    cover's global ids or None, nodes explored).  A `near` dict collects
    the run's near misses (see `_budget_search`): `budget`-sets that
    cover every alive edge but `edge` and one other, the key.

    The `alive` edges must have cover number budget + 1.  A cover is
    then found exactly when deleting `edge` lowers the cover number: a
    `budget`-set that covers the other edges and meets `edge` would
    cover them all.  A dominated vertex of such a set can be swapped
    for a vertex of its edge that is not dominated, and that vertex is
    not on `edge` either, by the same argument."""
    inst = _instance(h)
    excluded = inst.dominated
    for g in inst.gid_lists[edge]:
        excluded |= 1 << g
    node = ((), alive & ~(1 << edge), excluded)
    first, _, nodes = _budget_search(inst, budget, False, deadline, node, near)
    return first, nodes


def matching_number(
    h: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> MatchingResult:
    """Exact maximum matching size via branch-and-bound.  A node carries
    the mask of the later edges disjoint from every edge it has taken,
    and takes each of them in turn, lowest index first; it stops once
    its matching plus that mask cannot beat the best matching found.
    A child that could not beat it either is counted as one node and
    not entered, so nu, the witness and the node count are those of a
    search that enters every child.  An input with edges, no two of them
    disjoint, gets the search's answer without it (see the module
    docstring)."""
    if h.edges and h._intersecting[0]:
        # No two edges are disjoint: the search takes edge 0, then
        # refutes each later edge but the last as one node.
        return MatchingResult(1, (0,), max(h.num_edges, 2))
    full = (1 << h.num_edges) - 1
    apart = [full ^ meets for meets in h.edge_meets]  # per edge, the edges disjoint from it
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
                nodes += 1  # the child, refuted without being entered
                continue
            cur.append(i)
            rec(rest, cur)
            cur.pop()

    rec(full, [])
    return MatchingResult(len(best), tuple(best), nodes)


def verify_ryser_ratio(
    h: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> RatioReport:
    """tau, nu and whether tau == (r-1)*nu for an r-partite r-uniform
    input (r = number of sides).  nu comes first.  tau is the decide
    answer of `cover_number`, kept on h or on the source of a
    uniformized h; when it is not yet known, the cover search takes
    (r-1)*nu as its hint, which on an extremal input is one success run
    and one refutation.  The two searches share one `timeout`."""
    if h.num_edges == 0:
        raise EmptyHypergraphError("Ryser ratio is undefined without edges")
    r = h.num_sides
    if h.uniformity != r:
        raise NonUniformError(
            f"expected every edge to have size {r}; uniformize mixed inputs first"
        )
    deadline = _Deadline(timeout)
    nu = matching_number(h, timeout=timeout).nu
    tau = cover_number(h, upper_hint=(r - 1) * nu, timeout=deadline.remaining()).tau
    return RatioReport(r, tau, nu, tau / nu, tau == (r - 1) * nu)
