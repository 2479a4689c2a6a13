"""Exact cover number and matching number with certificates.

The cover search is exhaustive branch-and-bound over bitmask edges:
probe an increasing (or hint-seeded) size budget; within a budget,
branch on the uncovered edge of minimum size, over its vertices in
global order, excluding earlier branch vertices deeper in the tree so
every cover is generated exactly once.  A failed budget-b run is the
proof that no cover of size <= b exists, which makes the reported tau
exact.  The lower bound at each node is a greedily built disjoint-edge
family among the uncovered edges.

All tie-breaking is by smallest global vertex index / smallest edge
index, so identical inputs give identical certificates.  With jobs > 1
the root branches of each budget run are distributed across processes
and merged in branch order, leaving tau, witness and enumeration
identical to the single-worker run.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

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


def _greedy_disjoint_bound(masks, indices):
    union = 0
    lb = 0
    for i in indices:
        m = masks[i]
        if not m & union:
            union |= m
            lb += 1
    return lb


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


def _budget_search(masks, sizes, gid_lists, budget, collect, deadline,
                   chosen=(), chosen_mask=0, excluded=0, tasks=None):
    """Exhaustive search for covers of size <= budget extending `chosen`
    and avoiding `excluded`.  Returns (first_found, solutions, nodes).
    Given a `tasks` list, the root's branches are appended to it as
    (chosen, chosen_mask, excluded) instead of being searched."""
    first = None
    sols = [] if collect else None
    nodes = 0
    m = len(masks)

    def rec(chosen, chosen_mask, excluded):
        nonlocal first, nodes
        nodes += 1
        deadline.check()
        uncovered = [i for i in range(m) if not masks[i] & chosen_mask]
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
        union = 0
        lb = 0
        for i in uncovered:
            emask = masks[i]
            if not emask & ~excluded:
                return False  # some edge can no longer be covered here
            if not emask & union:
                union |= emask
                lb += 1
        if len(chosen) + lb > budget:
            return False
        branch = min(uncovered, key=lambda i: (sizes[i], i))
        acc = excluded
        for g in gid_lists[branch]:
            bit = 1 << g
            if not bit & acc:
                if child(chosen + (g,), chosen_mask | bit, acc):
                    return True
            acc |= bit
        return False

    # list.append returns None, which the branch loop reads as "go on"
    child = rec if tasks is None else lambda *branch: tasks.append(branch)
    rec(tuple(chosen), chosen_mask, excluded)
    return first, sols, nodes


def _subtree_task(args):
    """Process-pool entry: run one root branch with a fresh deadline."""
    masks, sizes, gid_lists, budget, collect, seconds, chosen, chosen_mask, excluded = args
    deadline = _Deadline(seconds)
    return _budget_search(masks, sizes, gid_lists, budget, collect, deadline,
                          chosen, chosen_mask, excluded)


def _attempt(masks, sizes, gid_lists, budget, collect, deadline, pool):
    """One exhaustive budget run; returns (first_found, solutions, nodes).
    With a pool, the root's branches run as separate tasks, merged in
    branch order."""
    deadline.check(force=True)
    tasks = None if pool is None else []
    first, sols, nodes = _budget_search(masks, sizes, gid_lists, budget, collect,
                                        deadline, tasks=tasks)
    if tasks:
        seconds = deadline.remaining()
        argses = [
            (masks, sizes, gid_lists, budget, collect, seconds, *task)
            for task in tasks
        ]
        for tfirst, tsols, tnodes in pool.map(_subtree_task, argses):
            nodes += tnodes
            if first is None:
                first = tfirst
            if collect:
                sols.extend(tsols)
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
    masks = h.edge_masks
    sizes = tuple(len(e) for e in h.edges)
    gid_lists = tuple(tuple(h.gid(v) for v in e) for e in h.edges)
    deadline = _Deadline(timeout)
    n = h.num_vertices

    pool = None
    try:
        if jobs > 1:
            pool = ProcessPoolExecutor(max_workers=jobs)
        lb = _greedy_disjoint_bound(masks, range(len(masks)))
        budget = max(lb, upper_hint) if upper_hint is not None else lb
        budget = min(budget, n)
        known_fail = lb - 1  # sizes below lb are impossible by the bound
        best = None          # (size, witness) of smallest cover found so far
        nodes_total = 0
        tau = None
        witness = None
        while True:
            first, _, nodes = _attempt(masks, sizes, gid_lists, budget, False,
                                       deadline, pool)
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
            first, sols, nodes = _attempt(masks, sizes, gid_lists, tau, True,
                                          deadline, pool)
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
    inclusion in index order."""
    masks = h.edge_masks
    m = len(masks)
    deadline = _Deadline(timeout)
    best = []
    nodes = 0

    def rec(i, cur_mask, cur):
        nonlocal best, nodes
        nodes += 1
        deadline.check()
        if i == m:
            if len(cur) > len(best):
                best = list(cur)
            return
        compatible = sum(1 for j in range(i, m) if not masks[j] & cur_mask)
        if len(cur) + compatible <= len(best):
            return
        if not masks[i] & cur_mask:
            cur.append(i)
            rec(i + 1, cur_mask | masks[i], cur)
            cur.pop()
        rec(i + 1, cur_mask, cur)

    rec(0, 0, [])
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
