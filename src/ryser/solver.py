"""Exact cover number and matching number with certificates.

The cover search is exhaustive branch-and-bound over bitmask edges:
probe an increasing (or hint-seeded) size budget; within a budget,
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

A degree-1 vertex is dominated by any other vertex of its edge: swapping
it for that vertex leaves a cover of no greater size.  Decide runs
therefore start with the dominated vertices excluded (in an edge made
only of degree-1 vertices, all but the first); this keeps tau and every
refutation, and drops the tail vertices `uniformize` adds.  Enumerations
exclude none, so they still return every minimum cover.  An edge's free
size, the branching key, is its size less its dominated vertices, fixed
per call: a uniformized edge is then branched on when its mixed original
would be, and the search is the mixed extension's.

The matching search branches on edge inclusion in index order and
carries the mask of the edges disjoint from all edges taken so far; its
bound is the popcount of that mask above the current index.

All tie-breaking is by smallest global vertex index / smallest edge
index, so identical inputs give identical certificates.  With jobs > 1
the root branches of each budget run are distributed across processes
and read in branch order, leaving tau, witness and enumeration
identical to the single-worker run.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple, Optional

from .errors import EmptyHypergraphError, NonUniformError, SolverTimeout, TooLargeError
from .hypergraph import PartiteHypergraph

DEFAULT_TIMEOUT = 60.0
_TIMEOUT_CHECK_EVERY = 256


@dataclass(frozen=True)
class CoverResult:
    tau: int
    witness: tuple                      # sorted (side, pos) vertices
    all_min_covers: Optional[tuple]     # sorted tuple of sorted vertex tuples
    nodes_explored: int                 # search statistic, not part of the certificate


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


def _degree_bound(incidence, uncovered, excluded):
    """Fewest free vertices that could cover every edge in `uncovered`:
    the smallest k whose k largest uncovered-edge degrees, over the
    vertices not in `excluded`, sum to at least the number of uncovered
    edges.  None when some uncovered edge has no free vertex left.
    `incidence` lists (vertex bit, mask of the edges through it)."""
    degrees = []
    reach = 0
    for bit, inc in incidence:
        if not bit & excluded:
            hit = inc & uncovered
            if hit:
                reach |= hit
                degrees.append(hit.bit_count())
    if reach != uncovered:
        return None
    need = uncovered.bit_count()
    degrees.sort(reverse=True)
    picks = 0
    for d in degrees:
        if need <= 0:
            break
        need -= d
        picks += 1
    return picks


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
    """The static search data of one hypergraph, built once per call."""
    gid_lists: tuple     # per edge, the global ids of its vertices in order
    incidence: tuple     # per global id, (vertex bit, mask of the edges through it)
    size_classes: tuple  # masks of the edges of each free size, smallest first
    dominated: int       # mask of the vertices a decide run never picks


def _gids_and_incidence(h):
    """Per edge, the global ids of its vertices in order, and per global
    id, the mask of the edges through it."""
    off = h.offsets
    gid_lists = tuple(tuple(off[s] + p for s, p in e) for e in h.edges)
    inc = [0] * h.num_vertices
    for i, gids in enumerate(gid_lists):
        bit = 1 << i
        for g in gids:
            inc[g] |= bit
    return gid_lists, inc


def _instance(h):
    gid_lists, inc = _gids_and_incidence(h)
    # A degree-1 vertex covers only its own edge, so any other vertex of
    # that edge does at least as well.  An edge of degree-1 vertices
    # keeps its first (edges list their vertices in global order).
    dominated = 0
    classes = {}
    for i, gids in enumerate(gid_lists):
        tails = [g for g in gids if inc[g] == 1 << i]
        if len(tails) == len(gids):
            tails = tails[1:]
        for g in tails:
            dominated |= 1 << g
        free = len(gids) - len(tails)
        classes[free] = classes.get(free, 0) | 1 << i
    return _Instance(
        gid_lists,
        tuple((1 << g, mask) for g, mask in enumerate(inc)),
        tuple(classes[size] for size in sorted(classes)),
        dominated,
    )


def _budget_search(inst, budget, collect, deadline, node=None, tasks=None):
    """Exhaustive search for covers of size <= budget below `node`, a
    (chosen, uncovered edge mask, excluded vertex mask) triple that
    defaults to the root.  The root of a decide run excludes the
    dominated vertices; that of an enumeration excludes none, so that
    every minimum cover is found.  Returns (first_found, solutions, nodes).
    Given a `tasks` list, the root's branches are appended to it as
    nodes instead of being searched."""
    gid_lists, incidence, size_classes, dominated = inst
    first = None
    sols = [] if collect else None
    nodes = 0

    def rec(chosen, uncovered, excluded):
        nonlocal first, nodes
        nodes += 1
        deadline.check()
        if not uncovered:
            sol = tuple(chosen)
            if first is None:
                first = sol
            if collect:
                sols.append(sol)
                return False
            return True
        if len(chosen) >= budget:
            return False
        lb = _degree_bound(incidence, uncovered, excluded)
        if lb is None or len(chosen) + lb > budget:
            return False
        # branch on the uncovered edge of smallest (free size, index)
        for cls in size_classes:
            branch = uncovered & cls
            if branch:
                break
        branch = (branch & -branch).bit_length() - 1
        acc = excluded
        for g in gid_lists[branch]:
            bit, inc = incidence[g]
            if not bit & acc:
                if child(chosen + (g,), uncovered & ~inc, acc):
                    return True
            acc |= bit
        return False

    # list.append returns None, which the branch loop reads as "go on"
    child = rec if tasks is None else lambda *branch: tasks.append(branch)
    if node is None:
        node = ((), (1 << len(gid_lists)) - 1, 0 if collect else dominated)
    rec(*node)
    return first, sols, nodes


def _subtree_task(inst, budget, collect, seconds, node):
    """Process-pool entry: run one root branch with a fresh deadline."""
    return _budget_search(inst, budget, collect, _Deadline(seconds), node)


def _attempt(inst, budget, collect, deadline, pool):
    """One exhaustive budget run; returns (first_found, solutions, nodes).
    With a pool, the root's branches run as separate tasks, read in
    branch order; a decide run stops at the first branch with a cover,
    cancelling the branches not yet started, so the witness and the node
    count are those of the serial run."""
    deadline.check(force=True)
    tasks = None if pool is None else []
    first, sols, nodes = _budget_search(inst, budget, collect, deadline, tasks=tasks)
    if tasks:
        seconds = deadline.remaining()
        futures = [pool.submit(_subtree_task, inst, budget, collect, seconds, node)
                   for node in tasks]
        for fut in futures:
            tfirst, tsols, tnodes = fut.result()
            nodes += tnodes
            if first is None:
                first = tfirst
            if collect:
                sols.extend(tsols)
            elif first is not None:
                # The serial search never enters the later branches, so
                # their results, errors included, are not read; those
                # already running finish unread.
                for later in futures:
                    later.cancel()
                break
    return first, sols, nodes


def cover_number(
    h: PartiteHypergraph,
    enumerate_all: bool = False,
    upper_hint: Optional[int] = None,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    jobs: int = 1,
) -> CoverResult:
    """Exact minimum vertex cover with witness; optionally every minimum
    cover.  Raises SolverTimeout if the wall-clock budget runs out."""
    if h.num_edges == 0:
        raise EmptyHypergraphError("cover number is undefined without edges")
    inst = _instance(h)
    deadline = _Deadline(timeout)
    n = h.num_vertices

    pool = None
    try:
        if jobs > 1:
            pool = ProcessPoolExecutor(max_workers=jobs)
        lb = _degree_bound(inst.incidence, (1 << h.num_edges) - 1, 0)
        budget = max(lb, upper_hint) if upper_hint is not None else lb
        budget = min(budget, n)
        known_fail = lb - 1  # sizes below lb are impossible by the bound
        best = None          # (size, witness) of smallest cover found so far
        nodes_total = 0
        tau = None
        witness = None
        while True:
            first, _, nodes = _attempt(inst, budget, False, deadline, pool)
            nodes_total += nodes
            if first is not None:
                size = len(first)
                if best is None or size < best[0]:
                    best = (size, first)
                if size == known_fail + 1:
                    tau, witness = size, first
                    break
                budget = size - 1
            else:
                known_fail = max(known_fail, budget)
                if best is not None and best[0] == budget + 1:
                    tau, witness = best
                    break
                budget += 1
                if budget > n:
                    raise AssertionError("no cover found over the full vertex set")

        all_covers = None
        if enumerate_all:
            first, sols, nodes = _attempt(inst, tau, True, deadline, pool)
            nodes_total += nodes
            witness = first
            all_covers = tuple(sorted(
                tuple(h.vid(g) for g in sorted(sol)) for sol in sols
            ))
        wit_vids = tuple(h.vid(g) for g in sorted(witness))
        return CoverResult(tau, wit_vids, all_covers, nodes_total)
    finally:
        if pool is not None:
            pool.shutdown()


def matching_number(
    h: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> MatchingResult:
    """Exact maximum matching size via branch-and-bound over edge
    inclusion in index order.  A node carries the mask of the edges
    disjoint from every edge taken so far; its bound is the number of
    those edges not yet decided."""
    m = h.num_edges
    gid_lists, inc = _gids_and_incidence(h)
    full = (1 << m) - 1
    apart = []  # per edge, the mask of the edges disjoint from it
    for gids in gid_lists:
        meets = 0
        for g in gids:
            meets |= inc[g]
        apart.append(full & ~meets)
    deadline = _Deadline(timeout)
    best = []
    nodes = 0

    def rec(i, avail, cur):
        nonlocal best, nodes
        nodes += 1
        deadline.check()
        if i == m:
            if len(cur) > len(best):
                best = list(cur)
            return
        if len(cur) + (avail >> i).bit_count() <= len(best):
            return
        if avail >> i & 1:
            cur.append(i)
            rec(i + 1, avail & apart[i], cur)
            cur.pop()
        rec(i + 1, avail, cur)

    rec(0, full, [])
    return MatchingResult(len(best), tuple(best), nodes)


def verify_ryser_ratio(
    h: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    jobs: int = 1,
) -> RatioReport:
    """tau, nu and whether tau == (r-1)*nu for an r-partite r-uniform
    input (r = number of sides)."""
    r = h.num_sides
    if h.uniformity != r:
        raise NonUniformError(
            f"expected every edge to have size {r}; uniformize mixed inputs first"
        )
    tau = cover_number(h, timeout=timeout, jobs=jobs).tau
    nu = matching_number(h, timeout=timeout).nu
    return RatioReport(r, tau, nu, tau / nu, tau == (r - 1) * nu)


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
