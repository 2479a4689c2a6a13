"""Exact solver: certificates, enumeration completeness, oracle agreement."""

import random
import time
from contextlib import contextmanager
from functools import cached_property, lru_cache
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ryser import solver
from ryser.analysis import _mirror_seeds, classify_extensions, minimize
from ryser import hypergraph
from ryser.construct import (
    ConstructionSpec,
    DegreeProfile,
    build_extension,
    select_f_by_profile,
    select_f_default,
    uniformize,
    validate_spec,
)
from ryser.errors import (
    EmptyHypergraphError,
    NonUniformError,
    RyserError,
    SolverTimeout,
    TooLargeError,
)
from ryser.gf import FiniteField
from ryser.hypergraph import (
    PartiteHypergraph,
    degree_stats,
    is_intersecting,
    truncated_plane_order,
)
from ryser.report import plane_counting_certificate
from ryser.plane import build_plane, truncate
from ryser.solver import (
    MatchingResult,
    RatioReport,
    _budget_search,
    _build_instance,
    _candidate_instance,
    _Deadline,
    _degree_sum_fits,
    _instance,
    _Instance,
    _ranked_degrees,
    cover_number,
    cover_without_edge,
    covering_transversals,
    matching_number,
    verify_ryser_ratio,
)

from oracles import (
    brute_force_cover_oracle,
    enumerate_candidates_brute,
    first_cover_reference,
    intersecting_walk,
    mirror_misses_walk,
    reference_matching,
)


@pytest.fixture(scope="module")
def t4():
    return truncate(build_plane(FiniteField(3)))


@pytest.fixture(scope="module")
def t3():
    return truncate(build_plane(FiniteField(2)))


def side_vertex_set(h, s):
    return frozenset((s, p) for p in range(len(h.sides[s])))


def unlinked(h):
    """An equal hypergraph with no source and no kept cover results, so
    that cover_number searches it afresh."""
    return PartiteHypergraph(h.sides, h.edges, h.edge_labels)


def fresh_copy(h):
    """An equal hypergraph linked to h's spec but with no kept cover
    answer, so that cover_number searches it as it would search h on a
    first call."""
    copy = unlinked(h)
    copy._spec = h._spec
    return copy


def covers(h, vertices):
    vs = set(vertices)
    return all(vs & set(e) for e in h.edges)


def disjoint_union(parts):
    sides = []
    edges = []
    for h in parts:
        off = len(sides)
        sides.extend(h.sides)
        for e in h.edges:
            edges.append(tuple((s + off, p) for s, p in e))
    return PartiteHypergraph(sides, edges)


def test_t4_tau_three(t4):
    res = cover_number(t4)
    assert res.tau == 3
    assert len(res.witness) == 3
    assert covers(t4, res.witness)
    assert brute_force_cover_oracle(t4) == 3


def test_t3_tau_two(t3):
    assert cover_number(t3).tau == 2
    assert brute_force_cover_oracle(t3) == 2


def test_t4_minus_edge_enumeration_is_sides(t4):
    h = t4.without_edge(0)
    res = cover_number(h, enumerate_all=True)
    assert res.tau == 3
    got = {frozenset(c) for c in res.all_min_covers}
    assert got == {side_vertex_set(h, s) for s in range(4)}
    assert len(res.all_min_covers) == 4
    # enumeration is canonically sorted and duplicate-free
    assert list(res.all_min_covers) == sorted(set(res.all_min_covers))


def test_single_edge_all_covers():
    h = PartiteHypergraph([["a"], ["b"], ["c"]], [[(0, 0), (1, 0), (2, 0)]])
    res = cover_number(h, enumerate_all=True)
    assert res.tau == 1
    assert len(res.all_min_covers) == 3


def test_empty_raises():
    h = PartiteHypergraph([["a"]], [])
    with pytest.raises(EmptyHypergraphError):
        cover_number(h)
    with pytest.raises(EmptyHypergraphError):
        brute_force_cover_oracle(h)
    with pytest.raises(EmptyHypergraphError, match="Ryser ratio is undefined without edges"):
        verify_ryser_ratio(h)
    with pytest.raises(EmptyHypergraphError, match="minimization is undefined without edges"):
        minimize(h)


def test_matching_numbers(t4):
    assert matching_number(t4).nu == 1
    empty = PartiteHypergraph([["a"]], [])
    assert matching_number(empty).nu == 0
    for k in (2, 3):
        u = disjoint_union([t4] * k)
        res = matching_number(u)
        assert res.nu == k
        masks = u.edge_masks
        used = 0
        for i in res.witness:
            assert not masks[i] & used
            used |= masks[i]
        # tau and nu are additive over disjoint components
        assert cover_number(u).tau == 3 * k


def test_intersecting_iff_nu_one(t4, t3):
    for h in (t4, t3, t4.without_edge(0)):
        ok, _ = is_intersecting(h)
        assert ok == (matching_number(h).nu == 1)
    two = PartiteHypergraph([["a", "b"], ["c", "d"]], [[(0, 0), (1, 0)], [(0, 1), (1, 1)]])
    assert matching_number(two).nu == 2
    assert is_intersecting(two)[0] is False


def test_ratio_reports(t4):
    rep = verify_ryser_ratio(t4)
    assert (rep.r, rep.tau, rep.nu) == (4, 3, 1)
    assert rep.is_ryser_extremal
    star = PartiteHypergraph(
        [["hub"], ["x", "y", "z"]],
        [[(0, 0), (1, p)] for p in range(3)],
    )
    rep2 = verify_ryser_ratio(star)
    assert (rep2.r, rep2.tau, rep2.nu) == (2, 1, 1)
    assert rep2.is_ryser_extremal
    mixed = PartiteHypergraph([["a"], ["b"]], [[(0, 0)], [(0, 0), (1, 0)]])
    with pytest.raises(NonUniformError):
        verify_ryser_ratio(mixed)


def test_oracle_guards():
    big = PartiteHypergraph([[str(i)] for i in range(30)], [[(0, 0), (1, 0)]])
    with pytest.raises(TooLargeError):
        brute_force_cover_oracle(big)
    # a small limit keeps the subset count manageable
    assert brute_force_cover_oracle(big, limit=2) == 1
    one = PartiteHypergraph([["a"], ["b"]], [[(0, 0), (1, 0)]])
    assert brute_force_cover_oracle(one) == 1


def test_oracle_limit_too_small(t4):
    with pytest.raises(TooLargeError):
        brute_force_cover_oracle(t4, limit=2)


def test_upper_hint_paths(t4):
    plain = cover_number(t4)
    for hint in (2, 3, 4, 7):
        assert cover_number(t4, upper_hint=hint).tau == 3
    assert cover_number(t4, upper_hint=3).witness == plain.witness


def test_determinism_and_jobs(t4):
    h = t4.without_edge(0)
    a = cover_number(h, enumerate_all=True)
    b = cover_number(h, enumerate_all=True)
    assert (a.tau, a.witness, a.all_min_covers) == (b.tau, b.witness, b.all_min_covers)
    # jobs is accepted and selects nothing; a fresh copy searches tau again
    c = cover_number(t4.without_edge(0), enumerate_all=True, jobs=2)
    assert (a.tau, a.witness, a.all_min_covers) == (c.tau, c.witness, c.all_min_covers)
    assert c.nodes_explored == a.nodes_explored
    # the two budget runs of a call with hint tau, on the q=3 and q=5
    # truncations and a q=5 extension: budget tau finds a cover, tau-1
    # refutes
    t6 = truncate(build_plane(FiniteField(5)))
    ext = build_extension(select_f_default(t6, 0), check=False)
    for h, tau in ((t4, 3), (t6, 5), (ext, 6)):
        inst = _instance(h)
        for budget in (tau, tau - 1):
            first, _, _ = _budget_search(inst, budget, False, _Deadline(None))
            assert (first is not None) == (budget == tau), (h.name, budget)


def test_timeout_raises():
    t5 = truncate(build_plane(FiniteField(2, 2)))
    with pytest.raises(SolverTimeout):
        cover_number(t5, timeout=0.0)


def test_ratio_searches_share_one_timeout(monkeypatch):
    # The clock moves an hour on once nu is known, so the cover search
    # that follows is past a budget the two share, but within one of
    # its own.
    offset = [0.0]
    monkeypatch.setattr(solver, "time",
                        SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0]))
    matching = solver.matching_number

    def matching_number(*args, **kwargs):
        res = matching(*args, **kwargs)
        offset[0] = 3600.0
        return res

    monkeypatch.setattr(solver, "matching_number", matching_number)
    t4 = truncate(build_plane(FiniteField(3)))
    with pytest.raises(SolverTimeout):
        verify_ryser_ratio(t4, timeout=60)
    offset[0] = 0.0
    assert verify_ryser_ratio(t4, timeout=None).is_ryser_extremal


def test_enumeration_matches_subset_scan(t3, t4):
    for h in (t3, t4.without_edge(0), truncate(build_plane(FiniteField(3)), 5).without_edge(2)):
        res = cover_number(h, enumerate_all=True)
        verts = list(h.vertices())
        expect = {
            frozenset(c)
            for c in combinations(verts, res.tau)
            if covers(h, c)
        }
        assert {frozenset(c) for c in res.all_min_covers} == expect
        # and no smaller cover exists
        assert not any(
            covers(h, c) for c in combinations(verts, res.tau - 1)
        )


def test_witness_covers_always(t4):
    for h in (t4, t4.without_edge(3)):
        res = cover_number(h, enumerate_all=True)
        assert covers(h, res.witness)
        for cov in res.all_min_covers:
            assert covers(h, cov)
            assert len(cov) == res.tau


@st.composite
def partite_hypergraphs(draw):
    """2-4 sides of up to 5 vertices, up to 12 distinct edges of one size
    or two consecutive sizes.  About half of the draws are intersecting:
    part of a relabelled truncated plane, then random edges that meet
    every edge kept so far.  The seed drives Python's generator, since
    hypothesis's small-value bias made nearly every greedy intersecting
    draw a star."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    k = rnd.randint(2, 4)
    intersecting = rnd.random() < 0.5
    edges = []
    if intersecting:
        side_sizes = [rnd.randint(k - 1, 5) for _ in range(k)]
        sizes = rnd.choice(((k,), (k - 1, k)))
        if k > 2:  # the truncation of PG(2, k-1) has k sides and tau = k-1
            relabel = [rnd.sample(range(n), k - 1) for n in side_sizes]
            for e in truncate(build_plane(FiniteField(k - 1))).edges:
                if rnd.random() < 0.7:
                    edges.append(frozenset((s, relabel[s][p]) for s, p in e))
    else:
        side_sizes = [rnd.randint(1, 5) for _ in range(k)]
        small = rnd.randint(1, k)
        sizes = (small, small + 1) if small < k and rnd.random() < 0.5 else (small,)
    for _ in range(rnd.randint(1, 12)):
        if len(edges) == 12:
            break
        chosen_sides = rnd.sample(range(k), rnd.choice(sizes))
        e = frozenset((s, rnd.randrange(side_sizes[s])) for s in chosen_sides)
        if e not in edges and not (intersecting and any(not e & f for f in edges)):
            edges.append(e)
    sides = [[f"{s}.{p}" for p in range(n)] for s, n in enumerate(side_sizes)]
    return PartiteHypergraph(sides, [sorted(e) for e in edges])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(partite_hypergraphs())
def test_cover_number_matches_subset_enumeration(h):
    res = cover_number(h, enumerate_all=True)
    assert res.tau == brute_force_cover_oracle(h)
    expect = {c for c in combinations(h.vertices(), res.tau) if covers(h, c)}
    assert set(res.all_min_covers) == expect
    assert len(res.all_min_covers) == len(expect)
    assert cover_number(h).witness in expect


def test_node_count_ceilings():
    # The degree-sum bound settles these in a few dozen nodes (8 and 49
    # when written); a search that needs ten times that has lost pruning.
    t8 = truncate(build_plane(FiniteField(7)))
    assert cover_number(t8, upper_hint=7).nodes_explored <= 50
    t6 = truncate(build_plane(FiniteField(5)))
    ext = build_extension(select_f_default(t6, 0), check=False)
    # the mirror argument proves tau >= 6, so the linked call skips the
    # refutation of budget 5 (7 nodes when written); an unlinked copy
    # still runs it
    assert cover_number(ext, upper_hint=6).nodes_explored <= 70
    assert cover_number(unlinked(ext), upper_hint=6).nodes_explored <= 490


def test_uniformized_node_ceilings():
    # A decide run never picks the degree-1 tail vertices that uniformize
    # adds and branches on the edges they lengthen first, so it searches
    # the tree of the mixed extension (49 and 81 nodes when written;
    # 267 and 987 before tails were skipped).
    for q, ceiling in ((5, 60), (7, 100)):
        t = truncate(build_plane(FiniteField(q)))
        u = uniformize(build_extension(select_f_default(t, 0), check=False))
        # u is answered by a search of its source; an unlinked copy
        # searches its own instance, tails included, and picks no tail
        tails = dominated_vertices(u)
        assert tails
        for v in (u, unlinked(u)):
            res = cover_number(v, upper_hint=q + 1)
            assert res.nodes_explored <= ceiling
            assert len(res.witness) == q + 1 and not set(res.witness) & tails


def dominated_vertices(h):
    """The degree-1 vertices of each edge that has a vertex of larger
    degree; in an edge of degree-1 vertices, all but its first."""
    degree = {}
    for e in h.edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    out = set()
    for e in h.edges:
        tails = [v for v in e if degree[v] == 1]
        out.update(tails[1:] if len(tails) == len(e) else tails)
    return out


@st.composite
def hypergraphs_with_tails(draw):
    """2-4 sides over a few shared vertices, and up to 7 distinct edges
    of one size or two consecutive sizes that each take a fresh degree-1
    vertex in a chosen side with probability 0.4; about one edge in four
    is made of fresh vertices only, so that most draws are not
    intersecting."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    k = rnd.randint(2, 4)
    small = rnd.randint(1, k)
    sizes = (small, small + 1) if small < k and rnd.random() < 0.5 else (small,)
    shared = [rnd.randint(1, 3) for _ in range(k)]
    sides = [[f"{s}.{p}" for p in range(n)] for s, n in enumerate(shared)]
    fresh_left = 20 - sum(shared)
    edges = set()
    for _ in range(rnd.randint(1, 7)):
        chosen = rnd.sample(range(k), rnd.choice(sizes))
        isolated = rnd.random() < 0.25
        e = []
        for s in chosen:
            if fresh_left and (isolated or rnd.random() < 0.4):
                fresh_left -= 1
                sides[s].append(f"t{len(sides[s])}")
                e.append((s, len(sides[s]) - 1))
            else:
                e.append((s, rnd.randrange(shared[s])))
        edges.add(tuple(sorted(e)))
    return PartiteHypergraph(sides, sorted(edges))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hypergraphs_with_tails())
def test_dominated_tails_match_oracle(h):
    res = cover_number(h, enumerate_all=True)
    assert res.tau == brute_force_cover_oracle(h)
    expect = {c for c in combinations(h.vertices(), res.tau) if covers(h, c)}
    assert set(res.all_min_covers) == expect
    assert len(res.all_min_covers) == len(expect)
    decide = cover_number(h)
    assert decide.tau == res.tau
    assert decide.witness in expect
    assert not set(decide.witness) & dominated_vertices(h)


def reference_matching_number(h, timeout=None):
    """matching_number as it was before its bound was read from a carried
    edge mask: every node recounts the compatible later edges."""
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


@st.composite
def disjoint_unions(draw):
    """The disjoint union of up to three random hypergraphs with the edge
    sizes of the first, so that nu reaches 3 and more."""
    parts = draw(st.lists(st.one_of(partite_hypergraphs(), hypergraphs_with_tails()),
                          min_size=1, max_size=3))
    sizes = {len(e) for e in parts[0].edges}
    return disjoint_union([h for h in parts if {len(e) for e in h.edges} == sizes])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(disjoint_unions())
def test_matching_number_matches_reference(h):
    got, want = matching_number(h), reference_matching_number(h)
    assert (got.nu, got.witness) == (want.nu, want.witness)
    assert got.nodes_explored <= want.nodes_explored


def entering_matching_number(h):
    """matching_number as it was before a child's bound was tested in its
    parent: every child is entered and tests its own bound."""
    m = h.num_edges
    apart = [((1 << m) - 1) & ~sum(1 << j for j, f in enumerate(h.edge_masks) if e & f)
             for e in h.edge_masks]
    best = []
    nodes = 0

    def rec(avail, cur):
        nonlocal best, nodes
        nodes += 1
        if len(cur) > len(best):
            best = list(cur)
        while avail and len(cur) + avail.bit_count() > len(best):
            low = avail & -avail
            avail ^= low
            i = low.bit_length() - 1
            cur.append(i)
            rec(avail & apart[i], cur)
            cur.pop()

    rec((1 << m) - 1, [])
    return MatchingResult(len(best), tuple(best), nodes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(disjoint_unions())
def test_matching_child_test_keeps_the_search(h):
    # A child refuted in its parent is counted as the node it would have
    # been, so nu, the witness and the node count are unchanged.
    assert matching_number(h) == entering_matching_number(h)


def test_matching_number_recursion_is_nu_deep():
    # A star of 1,500 edges overflowed the stack when the search recursed
    # once per edge; every edge after the first is refuted at the root.
    star = PartiteHypergraph([["a"], [f"b{i}" for i in range(1500)]],
                             [((0, 0), (1, i)) for i in range(1500)])
    assert matching_number(star) == MatchingResult(1, (0,), 1500)


def test_jobs_below_one_rejected_before_any_pool(t4):
    spec = select_f_default(t4, 0)
    ext = build_extension(spec, check=False)
    uni = uniformize(ext)
    calls = (
        lambda jobs: cover_number(t4, jobs=jobs),
        lambda jobs: validate_spec(spec, jobs=jobs),
    )
    for jobs in (0, -3):
        for call in calls:
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                call(jobs)
    # once the answer is kept, the check still comes before the lookup
    cover_number(ext)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            cover_number(uni, jobs=jobs)


def reference_degree_bound(incidence, uncovered, excluded):
    """The degree-sum bound as a node computed it before children were
    tested in their parent: the smallest k whose k largest uncovered-edge
    degrees over the vertices not in `excluded` reach the number of
    uncovered edges; None when an uncovered edge has no such vertex.
    `incidence` lists (vertex bit, incident-edge mask)."""
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


def reference_budget_search(inst, budget, collect, deadline):
    """_budget_search as it was before children were tested in their
    parent, searching from the root: every child is entered and runs
    the full O(V) bound.  Takes the same instance, its incidence entries
    read as (bit, mask)."""
    gid_lists, incidence, size_classes, dominated, _ = inst
    incidence = tuple((bit, inc) for _, bit, inc in incidence)
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
        lb = reference_degree_bound(incidence, uncovered, excluded)
        if lb is None or len(chosen) + lb > budget:
            return False
        for cls in size_classes:
            branch = uncovered & cls
            if branch:
                break
        branch = (branch & -branch).bit_length() - 1
        acc = excluded
        for g in gid_lists[branch]:
            bit, inc = incidence[g]
            if not bit & acc:
                if rec(chosen + (g,), uncovered & ~inc, acc):
                    return True
            acc |= bit
        return False

    rec((), (1 << len(gid_lists)) - 1, 0 if collect else dominated)
    return first, sols, nodes


def any_hypergraph():
    return st.one_of(partite_hypergraphs(), hypergraphs_with_tails())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph())
def test_budget_search_matches_reference(h):
    # The same tree, order and node count as a search that enters every
    # child, for decide runs and enumerations at every budget up to tau + 1.
    inst = _instance(h)
    tau = brute_force_cover_oracle(h)
    for budget in range(min(tau + 1, h.num_vertices) + 1):
        for collect in (False, True):
            got = _budget_search(inst, budget, collect, _Deadline(None))
            want = reference_budget_search(inst, budget, collect, _Deadline(None))
            assert got == want, (budget, collect)


def transversal_enumerations(h):
    """The (fresh side or None, sorted vertices) of every candidate edge
    `covering_transversals` finds, in its order, with its node count."""
    found, nodes = covering_transversals(h, None)
    return [(fresh, tuple(map(h.vid, gids))) for fresh, gids in found], nodes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph())
def test_transversals_match_product_enumeration(h):
    assert transversal_enumerations(h)[0] == enumerate_candidates_brute(h)


def test_transversal_node_ceiling():
    # The q=7 extension's candidate enumeration took 2,974 nodes when
    # written, 4,519 as r+2 enumerations, one per fresh side or none, and
    # 18,316 as those when a pick did not close its side.
    ext = build_extension(select_f_default(truncate(build_plane(FiniteField(7))), 0),
                          check=False)
    assert transversal_enumerations(ext)[1] <= 3000


def test_classification_counts_its_search_nodes():
    spec = select_f_default(truncate(build_plane(FiniteField(7))), 0)
    ext = build_extension(spec, check=False)
    precondition = cover_number(build_extension(spec, check=False), upper_hint=8).nodes_explored
    serial = classify_extensions(ext, spec)
    assert serial.nodes - precondition == 2974  # the candidate enumeration
    # a repeat call finds the cover-number check answered
    assert classify_extensions(ext, spec).nodes == 2974


def r_plus_two_instance(h, fresh):
    """`solver._transversal_instance` as it was when the classification ran
    one enumeration per fresh side (or none): the instance whose k-covers,
    for k the number of sides other than `fresh`, are the transversals of
    those sides that meet every edge of h; returns it with k."""
    off, m = h.offsets, h.num_edges
    gid_lists = [tuple([off[s] + p for s, p in e if s != fresh]) for e in h.edges]
    classes = [sum(1 << i for i, gids in enumerate(gid_lists) if len(gids) == size)
               for size in sorted({len(gids) for gids in gid_lists})]
    sides = [range(off[s], off[s + 1]) for s in range(h.num_sides) if s != fresh]
    gid_lists += map(tuple, sides)
    inc = [0] * off[-1]  # a fresh-side vertex meets no edge
    closes = [0] * off[-1]
    for i, gids in enumerate(sides):
        for g in gids:
            inc[g] = h.incidence_masks[g] | 1 << (m + i)
            closes[g] = ((1 << gids.stop) - 1) ^ ((1 << gids.start) - 1)
    k = len(sides)
    classes.append(((1 << k) - 1) << m)
    entries = tuple((mask.bit_count(), 1 << g, mask) for g, mask in enumerate(inc))
    return _Instance(tuple(gid_lists), entries, tuple(classes), 0, tuple(closes)), k


def reference_kind(spec, h, fresh, verts):
    """(kind, 1-based index) of a candidate, read from the definitions:
    an edge of h; F_i plus a final-side vertex (type 1); F_i - s_i + v_i
    plus a side-i vertex (type 2); else a violation."""
    r = spec.base.num_sides
    if fresh is None and frozenset(verts) in set(map(frozenset, h.edges)):
        return "already_present", None
    anchor = spec.anchor_vertices()
    for i, fe in enumerate(spec.f_edges):
        if fresh in (None, r) and {v for v in verts if v[0] != r} == set(spec.base.edges[fe]):
            return "type1", i + 1
    for i, fe in enumerate(spec.f_edges):
        shifted = (set(spec.base.edges[fe]) - {anchor[i]}) | {spec.mirror_vertex(i)}
        if fresh != r and {v for v in verts if v[0] != i} == shifted:
            return "type2", i + 1
    return "violation", None


@pytest.mark.filterwarnings("ignore:uniformity r=4")
@pytest.mark.parametrize("q", [3, 4, 5, 7])
@pytest.mark.parametrize("mode", ["default", "profile"])
def test_one_enumeration_matches_r_plus_two(q, mode):
    # The classification's candidates, in order, equal those of one
    # enumeration per fresh side (None first) on the former instance,
    # and their kinds those read from the definitions.  The inputs are
    # extensions, at q <= 5 also ones missing an E1 edge, whose
    # candidates include violations, and in default mode an extension
    # whose selected edges all equal the anchor edge.
    t = truncate(build_plane(FiniteField(2, 2) if q == 4 else FiniteField(q)))
    inputs = []
    for anchor in (0, random.Random(q).randrange(t.num_edges)):
        spec = (select_f_default(t, anchor) if mode == "default"
                else select_f_by_profile(t, anchor, DegreeProfile(q + 1, (1,)), strict=False))
        inputs.append((anchor, None, spec, build_extension(spec, check=False)))
    if mode == "default":
        spec = ConstructionSpec(t, 0, (0,) * (q + 1))
        inputs.append((0, "repeated F", spec, build_extension(spec, check=False)))
    if q <= 5:
        anchor, _, spec, ext = inputs[0]
        # E1 edges come first; a deletion that lowers tau has no candidates
        inputs += [(anchor, j, spec, ext.without_edge(j)) for j in range(t.num_edges - 1)
                   if cover_number(ext.without_edge(j)).tau == q + 1]
    violations = 0
    for anchor, variant, spec, h in inputs:
        want = []
        for fresh in [None, *range(h.num_sides)]:
            inst, k = r_plus_two_instance(h, fresh)
            _, sols, _ = _budget_search(inst, k, True, _Deadline(None))
            for verts in sorted(tuple(h.vid(g) for g in sorted(sol)) for sol in sols):
                want.append((fresh, verts, *reference_kind(spec, h, fresh, verts)))
        got = [(c.fresh_side, c.vertices, c.kind, c.index)
               for c in classify_extensions(h, spec).candidates]
        assert got == want, (q, mode, anchor, variant)
        violations += sum(kind == "violation" for _, _, kind, _ in got)
    # at q = 3 no deletion keeps tau and leaves a violation
    assert violations > 0 or q not in (4, 5)


def test_search_instance_built_once_per_hypergraph(monkeypatch):
    built = []
    build = solver._build_instance
    monkeypatch.setattr(solver, "_build_instance", lambda h, *_: built.append(h) or build(h))
    ext = build_extension(select_f_default(truncate(build_plane(FiniteField(5))), 0), check=False)
    u = uniformize(ext)
    verify_ryser_ratio(u)  # answered from ext, by its first descent
    minimize(u)            # its trials search u
    cover_number(u, enumerate_all=True)
    assert built == [u]


def parent_degree_sum_fits(ranked, uncovered, excluded, picks):
    """`_degree_sum_fits` with the one-pick and no-pick branches it had
    while the search tested a one-pick child in its parent: at one pick,
    whether an entry of `ranked`, taken in any order, meets every
    uncovered edge."""
    if not uncovered:
        return True
    if picks == 1:
        for _, bit, inc in ranked:
            if not bit & excluded and inc & uncovered == uncovered:
                return True
        return False
    if picks <= 0:
        return False
    return _degree_sum_fits(ranked, uncovered, excluded, picks)


def parent_budget_search(inst, budget, collect, deadline, node=None):
    """_budget_search as it was when a node with one pick left ran a
    one-pick bound of its own and its parent tested it the same way
    before entering it."""
    deadline.check(force=True)
    gid_lists, incidence, size_classes, dominated, closes = inst
    first = None
    sols = [] if collect else None
    nodes = 0

    def branch_edge(uncovered):
        for cls in size_classes:
            branch = uncovered & cls
            if branch:
                return (branch & -branch).bit_length() - 1

    def fits(uncovered, excluded, picks, ranked):
        if picks == 1 and uncovered:
            ranked = map(incidence.__getitem__, gid_lists[branch_edge(uncovered)])
        return parent_degree_sum_fits(ranked, uncovered, excluded, picks)

    def rec(chosen, uncovered, excluded, candidates=incidence):
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
        picks = budget - len(chosen)
        if picks <= 0:
            return False
        if picks == 1:
            ranked = None
            if not fits(uncovered, excluded, 1, None):
                return False
        else:
            ranked = _ranked_degrees(candidates, uncovered, excluded)
            if ranked is None or sum([d for d, _, _ in ranked[:picks]]) < uncovered.bit_count():
                return False
        acc = excluded
        for g in gid_lists[branch_edge(uncovered)]:
            _, bit, inc = incidence[g]
            if not bit & acc:
                rest = uncovered & ~inc
                closed = acc | closes[g]
                if not fits(rest, closed, picks - 1, ranked):
                    nodes += 1
                elif rec(chosen + (g,), rest, closed, ranked):
                    return True
            acc |= bit
        return False

    if node is None:
        node = ((), (1 << len(gid_lists)) - 1, 0 if collect else dominated)
    rec(*node)
    return first, sols, nodes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph(), st.integers(0, 2 ** 32 - 1))
def test_one_pick_scan_matches_parent_search(h, seed):
    # A node with one pick left scans its children once instead of
    # running a bound of its own that its parent ran too: the same first
    # cover, enumeration and node count at every budget, in decide runs
    # and enumerations, from the root, from `cover_without_edge` start
    # nodes, and on the candidate instance.
    rnd = random.Random(seed)
    inst = _instance(h)
    starts = [None]
    for edge in rnd.sample(range(h.num_edges), min(2, h.num_edges)):
        excluded = inst.dominated | sum(1 << g for g in inst.gid_lists[edge])
        starts.append(((), ((1 << h.num_edges) - 1) & ~(1 << edge), excluded))
    runs = [(inst, node) for node in starts] + [(_candidate_instance(h), None)]
    for inst, node in runs:
        for budget in range(len(inst.incidence) + 1):
            for collect in (False, True):
                got = _budget_search(inst, budget, collect, _Deadline(None), node)
                want = parent_budget_search(inst, budget, collect, _Deadline(None), node)
                assert got == want, (budget, collect, node)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph(), st.integers(0, 2 ** 32 - 1))
def test_child_test_matches_degree_bound(h, seed):
    # A parent ranks its free vertices once; each branch child's bound is
    # then read from that ranking (or, in the parent search with one pick
    # left, from any one uncovered edge of the child).  The test is the
    # degree-sum condition on the child, and agrees with the child's own
    # bound whenever the child has no dead edge.
    rnd = random.Random(seed)
    inst = _instance(h)
    pairs = tuple((bit, inc) for _, bit, inc in inst.incidence)
    n, m = h.num_vertices, h.num_edges
    uncovered = (1 << m) - 1
    for g in rnd.sample(range(n), rnd.randint(0, min(3, n))):
        uncovered &= ~inst.incidence[g][2]
    excluded = sum(1 << g for g in range(n) if rnd.random() < 0.2)
    ranked = _ranked_degrees(inst.incidence, uncovered, excluded)
    if not uncovered or ranked is None:
        return
    assert ranked == sorted(ranked, reverse=True)
    branch = rnd.choice([i for i in range(m) if uncovered >> i & 1])
    acc = excluded
    for g in inst.gid_lists[branch]:
        _, bit, inc = inst.incidence[g]
        if bit & acc:
            continue
        rest = uncovered & ~inc
        child_excluded = acc | bit
        bound = reference_degree_bound(pairs, rest, acc)
        for picks in range(5):
            fits = _degree_sum_fits if picks >= 2 else parent_degree_sum_fits
            passes = fits(ranked, rest, child_excluded, picks)
            if picks == 1 and rest:
                edge = rnd.choice([i for i in range(m) if rest >> i & 1])
                entries = [inst.incidence[v] for v in inst.gid_lists[edge]]
                assert parent_degree_sum_fits(entries, rest, child_excluded, 1) == passes
            if bound is not None:
                assert passes == (bound <= picks), (picks, bound)
            degrees = sorted(((inc & rest).bit_count() for _, b, inc in inst.incidence
                              if not b & child_excluded), reverse=True)
            assert passes == (sum(degrees[:picks]) >= rest.bit_count())
        acc |= bit


def heap_node_budget_search(inst, budget, collect, node=None):
    """_budget_search as it was when a node with two or more picks left
    tested its own bound with `_degree_sum_fits`, a heap walk over its
    ranking that recounts each degree, instead of summing the ranking's
    first degrees.  Child tests and the one-pick case are unchanged."""
    gid_lists, incidence, size_classes, dominated, closes = inst
    first = None
    sols = [] if collect else None
    nodes = 0

    def branch_edge(uncovered):
        for cls in size_classes:
            branch = uncovered & cls
            if branch:
                return (branch & -branch).bit_length() - 1

    def fits(uncovered, excluded, picks, ranked):
        if picks == 1 and uncovered:
            ranked = map(incidence.__getitem__, gid_lists[branch_edge(uncovered)])
        return parent_degree_sum_fits(ranked, uncovered, excluded, picks)

    def rec(chosen, uncovered, excluded, candidates=incidence):
        nonlocal first, nodes
        nodes += 1
        if not uncovered:
            sol = tuple(chosen)
            if first is None:
                first = sol
            if collect:
                sols.append(sol)
                return False
            return True
        picks = budget - len(chosen)
        if picks <= 0:
            return False
        ranked = None
        if picks > 1:
            ranked = _ranked_degrees(candidates, uncovered, excluded)
            if ranked is None:
                return False
        if not fits(uncovered, excluded, picks, ranked):
            return False
        acc = excluded
        for g in gid_lists[branch_edge(uncovered)]:
            _, bit, inc = incidence[g]
            if not bit & acc:
                rest = uncovered & ~inc
                closed = acc | closes[g]
                if not fits(rest, closed, picks - 1, ranked):
                    nodes += 1
                elif rec(chosen + (g,), rest, closed, ranked):
                    return True
            acc |= bit
        return False

    if node is None:
        node = ((), (1 << len(gid_lists)) - 1, 0 if collect else dominated)
    rec(*node)
    return first, sols, nodes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph(), st.integers(0, 2 ** 32 - 1))
def test_node_bound_from_ranking_matches_heap_walk(h, seed):
    # A node reads its own bound from its ranking and prunes exactly
    # where the heap walk did: the same first cover, enumeration and node
    # count for decide runs and enumerations from the root, for runs from
    # a `cover_without_edge` start node, and on the candidate instance.
    inst = _instance(h)
    tau = brute_force_cover_oracle(h)
    runs = [(inst, budget, collect, None)
            for budget in range(min(tau + 1, h.num_vertices) + 1)
            for collect in (False, True)]
    edge = random.Random(seed).randrange(h.num_edges)
    excluded = inst.dominated | sum(1 << g for g in inst.gid_lists[edge])
    start = ((), ((1 << h.num_edges) - 1) & ~(1 << edge), excluded)
    runs += [(inst, budget, False, start) for budget in range(tau)]
    runs.append((_candidate_instance(h), h.num_sides, True, None))
    for inst, budget, collect, node in runs:
        got = _budget_search(inst, budget, collect, _Deadline(None), node)
        assert got == heap_node_budget_search(inst, budget, collect, node), (budget, collect, node)


@pytest.mark.parametrize("q, classify_nodes, trial_nodes", [
    (4, 245, 62), (5, 571, 450), (7, 2983, 8488),
])
def test_anchor_zero_search_totals(q, classify_nodes, trial_nodes):
    # The search nodes of the classification and of minimize's trials on
    # the anchor-0 default spec, pinned when a node's bound was first read
    # from its ranking (the classification's again when one candidate
    # enumeration replaced r+2): a change that prunes differently moves them.
    field = FiniteField(2, 2) if q == 4 else FiniteField(q)
    spec = select_f_default(truncate(build_plane(field)), 0)
    assert classify_extensions(build_extension(spec, check=False), spec).nodes == classify_nodes
    trace = minimize(uniformize(build_extension(spec, check=False)))
    assert sum(e.cert.nodes_explored for e in trace.deleted + trace.kept) == trial_nodes


def test_pg25_anchor_chain_totals(monkeypatch):
    # The PG(2,5) chain of every anchor: 181 decide nodes in 51 calls
    # (the uniformized extensions' calls are answered from their sources)
    # and 900 matching nodes.
    t = truncate(build_plane(FiniteField(5)))
    results = [cover_number(t, upper_hint=5)]
    searched = []
    for name in ("_branching", "_first_descent"):
        run = getattr(solver, name)
        monkeypatch.setattr(solver, name,
                            lambda *args, name=name, run=run: searched.append(name) or run(*args))
    matching = 0
    for anchor in range(25):
        ext = build_extension(select_f_default(t, anchor), check=False)
        u = uniformize(ext)
        results += [cover_number(ext, upper_hint=6), cover_number(u, upper_hint=6)]
        matching += matching_number(u).nodes_explored
        # nu = 1 is read from the E3 edges: no edge_meets is built
        assert not {"edge_meets"} & (vars(ext).keys() | vars(u).keys())
        # tau and nu are read off the spec: no rows, masks or search
        assert not {"edge_gids", "incidence_masks", "edge_meets"} & (vars(ext).keys()
                                                                     | vars(u).keys())
        assert ext._search is None
    assert searched == []
    assert (len(results), sum(r.nodes_explored for r in results)) == (51, 181)
    assert matching == 900


def degree_sum_bound(h):
    """The least k whose k largest vertex degrees sum to the edge count."""
    total = 0
    for k, d in enumerate(sorted(map(int.bit_count, h.incidence_masks), reverse=True), 1):
        total += d
        if total >= h.num_edges:
            return k


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph().filter(lambda h: h.num_vertices <= 12), st.integers(0, 2 ** 32 - 1))
def test_decide_run_finds_the_first_cover_of_a_search_without_bounds(h, seed):
    # From the root, and from roots that drop one edge of an alive set
    # and exclude its vertices, a decide run's first cover is the first
    # one a search with no bound reaches in the same order; one reached
    # through every first child takes one node per level and the leaf.
    inst = _instance(h)
    rnd = random.Random(seed)
    full = (1 << h.num_edges) - 1
    edge = rnd.randrange(h.num_edges)
    excluded = inst.dominated | sum(1 << g for g in inst.gid_lists[edge])
    roots = [((), full, inst.dominated)]
    for alive in (full, rnd.getrandbits(h.num_edges)):
        roots.append(((), alive & ~(1 << edge), excluded))
    tau = brute_force_cover_oracle(h)
    for node in roots:
        for budget in range(degree_sum_bound(h), tau + 2):
            first, _, nodes = _budget_search(inst, budget, False, _Deadline(None), node)
            want, leftmost = first_cover_reference(inst.gid_lists, inst.size_classes,
                                                   inst.closes, node, budget)
            assert first == want, (node, budget)
            if leftmost:
                assert nodes == len(first) + 1, (node, budget)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph().filter(lambda h: h.num_vertices <= 12), st.integers(0, 2 ** 32 - 1))
def test_near_misses_each_miss_one_edge_of_the_trial(h, seed):
    # A trial that collects near misses returns what it returns without
    # them, and each one is a budget-set, off the tried edge, that
    # misses exactly its key among the trial's other alive edges.
    rnd = random.Random(seed)
    full = (1 << h.num_edges) - 1
    edge = rnd.randrange(h.num_edges)
    masks = h.edge_masks
    tau = brute_force_cover_oracle(h)
    for alive in (full, rnd.getrandbits(h.num_edges) | 1 << edge):
        others = alive & ~(1 << edge)
        for budget in range(max(tau - 2, 0), tau + 1):
            near = {}
            got = cover_without_edge(h, alive, edge, budget, _Deadline(None), near)
            assert got == cover_without_edge(h, alive, edge, budget, _Deadline(None))
            for j, gids in near.items():
                cover = sum(1 << g for g in gids)
                missed = [i for i, e in enumerate(masks) if others >> i & 1 and not e & cover]
                assert (missed, len(gids)) == ([j], budget), (alive, budget)
                assert not cover & masks[edge]


@contextmanager
def no_ranking(monkeypatch):
    """Fails the block if any search node ranks its free vertices."""
    ranked = []
    rank = solver._ranked_degrees
    monkeypatch.setattr(solver, "_ranked_degrees", lambda *a: ranked.append(a) or rank(*a))
    yield
    assert ranked == []


@pytest.mark.parametrize("field", [(3,), (2, 2), (5,), (7,), (2, 3), (3, 2), (7, 2)])
def test_truncated_plane_is_answered_by_the_first_descent(field, monkeypatch):
    # The first descent picks side 0, a q-cover that the degree-sum
    # bound proves minimum: one node per pick and the leaf, no ranking.
    t = truncate(build_plane(FiniteField(*field)))
    q = len(t.sides[0])
    with no_ranking(monkeypatch):
        res = cover_number(t)
    side0 = tuple(sorted(side_vertex_set(t, 0)))
    assert (res.tau, res.witness, res.nodes_explored) == (q, side0, q + 1)


def e3_side_one_vertex(ext):
    return next(v for v in ext.edges[ext.edge_labels.index("E3(1)")] if v[0] == 1)


def test_extensions_are_answered_by_the_first_descent(monkeypatch):
    # The first descent's path, side 0 and the side-1 vertex of E3(1),
    # covers the extension with r vertices, the mirror bound: it is read
    # off the spec with the descent's r + 1 nodes and no ranking, at
    # every anchor of PG(2,5) and for a strict profile at q=16.
    t5 = truncate(build_plane(FiniteField(5)))
    specs = [select_f_default(t5, anchor) for anchor in range(25)]
    t16 = truncate(build_plane(FiniteField(2, 4)))
    specs.append(select_f_by_profile(t16, 0, DegreeProfile(17, (4,))))
    for spec in specs:
        ext = build_extension(spec, check=False)
        with no_ranking(monkeypatch):
            res = cover_number(ext)
        witness = tuple(sorted(side_vertex_set(ext, 0) | {e3_side_one_vertex(ext)}))
        assert (res.tau, res.witness, res.nodes_explored) == (spec.r, witness, spec.r + 1)


def uniformizable(h):
    return {len(e) for e in h.edges} <= {h.num_sides - 1, h.num_sides}


def tails_of(u, h):
    """The vertices `uniformize` added to h to make u."""
    return {(s, p) for s in range(h.num_sides) for p in range(len(h.sides[s]), len(u.sides[s]))}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph().filter(uniformizable), st.sampled_from([None, 1, 2, 3, 6]))
def test_uniformized_answered_from_source(h, hint):
    u = uniformize(h)
    got = cover_number(u, upper_hint=hint)
    assert got.tau == cover_number(unlinked(u), upper_hint=hint).tau
    assert len(got.witness) == got.tau and covers(u, got.witness)
    assert not set(got.witness) & tails_of(u, h)
    if u is not h:
        kept = cover_number(h, upper_hint=hint)  # u's call searched h
        assert (kept.tau, kept.witness, kept.nodes_explored) == (got.tau, got.witness, 0)
        assert cover_number(u, enumerate_all=True).all_min_covers == \
            cover_number(unlinked(u), enumerate_all=True).all_min_covers


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (5, 1), (7, 1)])
def test_uniformized_extensions_match_own_search(p, k):
    q = p ** k
    t = truncate(build_plane(FiniteField(p, k)))
    for anchor in range(q * q):
        u = uniformize(build_extension(select_f_default(t, anchor), check=False))
        for hint in (None, q + 1, q + 3):
            got = cover_number(u, upper_hint=hint)
            own = cover_number(unlinked(u), upper_hint=hint)
            assert (got.tau, got.witness) == (own.tau, own.witness), (anchor, hint)


def extension_specs(t, q):
    """The default and the relaxed (1,)-profile spec of every anchor of
    the truncation t of order q, where the selection finds one."""
    for anchor in range(q * q):
        yield select_f_default(t, anchor)
        try:
            yield select_f_by_profile(t, anchor, DegreeProfile(q + 1, (1,)), strict=False)
        except RyserError:
            pass


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (5, 1), (7, 1)])
def test_mirror_bound_keeps_every_answer(p, k):
    # An extension linked to its spec starts its budget loop at tau >= r;
    # its answers are those of an unlinked copy, which refutes r-1 by search.
    q = p ** k
    t = truncate(build_plane(FiniteField(p, k)))
    assert truncated_plane_order(t) == q
    for spec in extension_specs(t, q):
        ext = build_extension(spec, check=False)
        for hint in (None, q + 1, q + 3):
            got = cover_number(ext, upper_hint=hint)
            own = cover_number(unlinked(ext), upper_hint=hint)
            assert (got.tau, got.witness) == (own.tau, own.witness), (spec, hint)
            assert got.tau == q + 1 and got.nodes_explored < own.nodes_explored
        got = cover_number(ext, enumerate_all=True)
        own = cover_number(unlinked(ext), enumerate_all=True)
        assert (got.witness, got.all_min_covers) == (own.witness, own.all_min_covers)


def test_mirror_bound_needs_the_plane_test_and_the_candidates():
    # On the q=2 truncation the reduced base has covers other than the
    # sides and the extensions have tau 2 < r, though no side covers them.
    t3 = truncate(build_plane(FiniteField(2)))
    assert truncated_plane_order(t3) is None
    unproved = [build_extension(select_f_default(t3, anchor), check=False) for anchor in range(4)]
    # An F_j that misses s_j lets side j cover the extension (tau <= r-1).
    t6 = truncate(build_plane(FiniteField(5)))
    anchor = t6.edges[0]
    for j in range(6):
        f = list(select_f_default(t6, 0).f_edges)
        f[j] = next(i for i in range(1, 25) if anchor[j] not in t6.edges[i])
        stray = build_extension(ConstructionSpec(t6, 0, tuple(f)), check=False)
        assert cover_number(unlinked(stray)).tau < 6
        unproved.append(stray)
    # A copy without an edge, or read back from a file, carries no spec.
    ext = build_extension(select_f_default(t6, 0), check=False)
    unproved += [ext.without_edge(i) for i in (0, 24, -1)]
    unproved.append(hypergraph.loads_rhg(hypergraph.dumps_rhg(ext)))
    for h in unproved:
        for hint in (None, h.num_sides - 1, h.num_sides + 1):
            got = cover_number(fresh_copy(h), upper_hint=hint)
            own = cover_number(unlinked(h), upper_hint=hint)
            assert (got.tau, got.witness, got.nodes_explored) == \
                (own.tau, own.witness, own.nodes_explored), (h, hint)


def budget_loop(h, hint, lb):
    """(tau, witness, nodes explored) of a first decide call on h with
    lower bound lb, by the budget loop alone: every run, the first
    included, a `_budget_search` on `_instance(h)`."""
    inst = _instance(h)
    n = h.num_vertices
    budget = min(max(lb, hint) if hint is not None else lb, n)
    refuted, nodes_total = lb - 1, 0
    while True:
        first, _, nodes = _budget_search(inst, budget, False, _Deadline(None))
        nodes_total += nodes
        if first is not None:
            break
        refuted, budget = budget, budget + 1
    while len(first) > refuted + 1:
        smaller, _, nodes = _budget_search(inst, len(first) - 1, False, _Deadline(None))
        nodes_total += nodes
        if smaller is None:
            break
        first = smaller
    return len(first), tuple(h.vid(g) for g in sorted(first)), nodes_total


@lru_cache(maxsize=None)
def plane(q):
    return build_plane(FiniteField(2, 2) if q == 4 else FiniteField(q))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4, 5]), st.sampled_from(["default", "profile", "unchecked"]),
       st.sampled_from([None, 0, 2]), st.data())
def test_first_descent_answers_as_the_budget_loop(q, mode, above_r, data):
    # A decide call walks its first descent before it builds a search
    # instance.  On a fresh linked extension and on its base, it answers
    # as an unlinked copy does, with the node count of a loop whose every
    # run is a search, from the mirror bound r when it holds, else from
    # the degree-sum bound; and it still times out at once.
    t = truncate(plane(q), data.draw(st.integers(0, q * q + q), label="point"))
    r, anchor = q + 1, data.draw(st.integers(0, q * q - 1), label="anchor")
    if mode == "default":
        spec = select_f_default(t, anchor)
    elif mode == "profile":
        try:
            spec = select_f_by_profile(t, anchor, DegreeProfile(r, (1,)), strict=False)
        except RyserError:
            return
    else:  # any edge as F_i, through s_i or not
        spec = ConstructionSpec(t, anchor, tuple(data.draw(
            st.lists(st.integers(0, q * q - 1), min_size=r, max_size=r), label="f_edges")))
    ext = build_extension(spec, check=False)
    mirror = all(side and swap for *_, side, swap in mirror_misses_walk(ext, spec))
    hint = None if above_r is None else r + above_r
    for h, lb in ((ext, max(degree_sum_bound(ext), r) if mirror else degree_sum_bound(ext)),
                  (t, degree_sum_bound(t))):
        with pytest.raises(SolverTimeout):
            cover_number(h, upper_hint=hint, timeout=0)
        assert h._decided is None and h._search is None
        got = cover_number(h, upper_hint=hint)
        own = cover_number(unlinked(h), upper_hint=hint)
        assert (got.tau, got.witness) == (own.tau, own.witness)
        assert (got.tau, got.witness, got.nodes_explored) == budget_loop(h, hint, lb)


def test_plane_test_runs_once_per_base(monkeypatch):
    tests = []
    plane_test = PartiteHypergraph._plane_order.func
    counted = cached_property(lambda base: tests.append(base) or plane_test(base))
    counted.__set_name__(PartiteHypergraph, "_plane_order")
    monkeypatch.setattr(PartiteHypergraph, "_plane_order", counted)
    t6 = truncate(build_plane(FiniteField(5)))
    for anchor in range(25):
        spec = select_f_default(t6, anchor)
        assert validate_spec(spec) == []
        assert plane_counting_certificate(spec)["q"] == 5
        ext = build_extension(spec, check=False)
        assert cover_number(ext, upper_hint=6).tau == 6
    assert tests == [t6]


def test_repeat_call_searches_nothing(t4, monkeypatch):
    h = unlinked(t4)
    first = cover_number(h, upper_hint=3)
    assert first.nodes_explored > 0
    searches = []
    budget_search = solver._budget_search
    monkeypatch.setattr(solver, "_budget_search",
                        lambda *a, **k: searches.append(a) or budget_search(*a, **k))
    # a kept answer is returned whatever the timeout or jobs
    for kwargs in ({}, {"timeout": 0.0}, {"jobs": 2}):
        again = cover_number(h, upper_hint=3, **kwargs)
        assert (again.tau, again.witness, again.nodes_explored) == (first.tau, first.witness, 0)
    # so is it whatever the hint: the answer does not depend on it
    for hint in (None, 1, 4, h.num_vertices + 1):
        again = cover_number(h, upper_hint=hint)
        assert (again.tau, again.witness, again.nodes_explored) == (first.tau, first.witness, 0)
    assert searches == []
    # enumerations are never kept; each runs only its own enumeration
    cover_number(h, enumerate_all=True)
    cover_number(h, enumerate_all=True)
    assert len(searches) == 2


def per_hint_cover_number(h, hint):
    """(tau, witness, nodes explored) of a first decide call on h with
    `upper_hint` hint, by the budget loop that kept one answer per hint:
    probe from max(lb, hint), remember the smallest cover found and the
    largest refuted budget, and stop once they are one apart."""
    inst = _instance(h)
    n = h.num_vertices
    everything = (1 << h.num_edges) - 1
    ranked = _ranked_degrees(inst.incidence, everything, 0)
    lb = 1
    while not _degree_sum_fits(ranked, everything, 0, lb):
        lb += 1
    budget = min(max(lb, hint) if hint is not None else lb, n)
    known_fail, best, nodes_total = lb - 1, None, 0
    while True:
        first, _, nodes = _budget_search(inst, budget, False, _Deadline(None))
        nodes_total += nodes
        if first is not None:
            if best is None or len(first) < len(best):
                best = first
            if len(first) == known_fail + 1:
                break
            budget = len(first) - 1
        else:
            known_fail = max(known_fail, budget)
            if best is not None and len(best) == budget + 1:
                break
            budget += 1
    return len(best), tuple(h.vid(g) for g in sorted(best)), nodes_total


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph())
def test_climb_then_shrink_matches_the_per_hint_loop(h):
    # The same runs in the same order, so the same answer and node count,
    # on a fresh hypergraph for every hint.
    for hint in (None, *range(1, h.num_vertices + 2)):
        got = cover_number(unlinked(h), upper_hint=hint)
        want = per_hint_cover_number(unlinked(h), hint)
        assert (got.tau, got.witness, got.nodes_explored) == want, hint


@contextmanager
def counting_budget_searches():
    """Within the block, the list of the arguments of every
    `solver._budget_search` call."""
    searches = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_budget_search",
                   lambda *a: searches.append(a) or _budget_search(*a))
        yield searches


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph(), st.sampled_from([None, 1, 2, 3, 6]))
def test_any_decide_call_answers_every_hint(h, hint):
    h = unlinked(h)
    first = cover_number(h, upper_hint=hint)
    with counting_budget_searches() as searches:
        for later in (None, *range(1, h.num_vertices + 2)):
            again = cover_number(h, upper_hint=later)
            assert (again.tau, again.witness, again.nodes_explored) == \
                (first.tau, first.witness, 0), later
    assert searches == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph(), st.sampled_from([None, 1, 2, 3, 6]))
def test_enumeration_after_a_decide_runs_only_itself(h, hint):
    # on h, and on its uniformized copy, whose decide answer h keeps
    inputs = [unlinked(h)]
    if uniformizable(h):
        inputs.append(uniformize(unlinked(h)))
    for g in inputs:
        cover_number(g, upper_hint=hint)
        with counting_budget_searches() as searches:
            got = cover_number(g, enumerate_all=True, upper_hint=hint)
        assert len(searches) == 1
        want = cover_number(unlinked(g), enumerate_all=True)
        assert (got.tau, got.witness, got.all_min_covers) == \
            (want.tau, want.witness, want.all_min_covers)


def test_enumeration_on_uniformized_lists_tail_covers():
    h = PartiteHypergraph([["a", "b"], ["c"]], [[(0, 0), (1, 0)], [(0, 1)]])
    u = uniformize(h)
    tail = (1, 1)
    assert u.edges == (((0, 0), (1, 0)), ((0, 1), tail))
    res = cover_number(u, enumerate_all=True)
    assert res.all_min_covers == (((0, 0), (0, 1)), ((0, 0), tail), ((0, 1), (1, 0)), ((1, 0), tail))
    decide = cover_number(u)
    assert decide.tau == 2 and tail not in decide.witness


def test_timed_out_call_keeps_nothing():
    t5 = truncate(build_plane(FiniteField(2, 2)))
    with pytest.raises(SolverTimeout):
        cover_number(t5, timeout=0.0)
    res = cover_number(t5)
    assert res.tau == 4 and res.nodes_explored > 0


def ratio_inputs():
    """r-uniform hypergraphs on r sides: uniform draws, and uniformized
    mixed ones."""
    return any_hypergraph().filter(uniformizable).map(uniformize)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ratio_inputs())
def test_ryser_ratio_hint_keeps_the_report(h):
    r = h.num_sides
    tau = cover_number(unlinked(h)).tau
    nu = matching_number(h).nu
    assert verify_ryser_ratio(h) == RatioReport(r, tau, nu, tau / nu, tau == (r - 1) * nu)


# --- incidence data derived from the hypergraph a copy was built from ---


def parent_build_instance(h):
    """`_build_instance` as it was before it read the dominated vertices
    from the degree-1 masks: every vertex of every edge is compared with
    the edge's bit, on masks of its own walk of the edges."""
    off = h.offsets
    gid_lists = tuple([tuple([off[s] + p for s, p in e]) for e in h.edges])
    inc = [0] * off[-1]
    for i, gids in enumerate(gid_lists):
        for g in gids:
            inc[g] |= 1 << i
    dominated = 0
    classes = {}
    bit = 1
    for gids in gid_lists:
        tails = [g for g in gids if inc[g] == bit]
        if len(tails) == len(gids):
            del tails[0]
        for g in tails:
            dominated |= 1 << g
        free = len(gids) - len(tails)
        classes[free] = classes.get(free, 0) | bit
        bit <<= 1
    return _Instance(
        gid_lists,
        tuple((mask.bit_count(), 1 << g, mask) for g, mask in enumerate(inc)),
        tuple(classes[size] for size in sorted(classes)),
        dominated,
        tuple(1 << g for g in range(len(inc))),
    )


def assert_derived_as_plain(h):
    """h's incidence data equal that of an equal hypergraph that has no
    source and no spec, so computes every value from its own edges."""
    plain = unlinked(h)
    assert plain._source is None and plain._spec is None
    assert is_intersecting(h) == is_intersecting(plain)
    assert h.incidence_masks == plain.incidence_masks
    assert h.edge_meets == plain.edge_meets
    assert degree_stats(h) == degree_stats(plain)


def assert_search_as_parent(h):
    # entering_matching_number builds its disjoint-edge masks from edge
    # pairs, and gives the parent's nu, witness and node count
    assert _build_instance(h) == parent_build_instance(h)
    assert matching_number(h) == entering_matching_number(h)


@lru_cache(maxsize=None)
def truncation(q, point=0):
    field = FiniteField(2, 2) if q == 4 else FiniteField(q)
    return truncate(build_plane(field), point)


def check_extension_chain(spec):
    ext = build_extension(spec, check=False)
    u = uniformize(ext)
    assert ext._spec is spec and u._source is ext
    # both builders leave the derived data to the first read
    assert not {"incidence_masks", "edge_meets"} & (vars(ext).keys() | vars(u).keys())
    for h in (u, ext):  # u first, so that its reads derive ext's data too
        assert_derived_as_plain(h)
        assert_search_as_parent(h)
        assert list(solver._mirror_misses(h)) == mirror_misses_walk(h, spec)
    # the E1 rows do not depend on whether the base has an instance
    _instance(spec.base)
    assert _build_instance(ext) == _build_instance(unlinked(ext))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_extension_chain_data_match_a_plain_copy(q):
    for spec in extension_specs(truncation(q), q):
        check_extension_chain(spec)


def test_extension_rows_with_and_without_a_base_instance():
    t = unlinked(truncation(5))
    for anchor in (0, 7, 24):
        ext = build_extension(select_f_default(t, anchor), check=False)
        if anchor == 0:
            assert t._search is None
            walked = _build_instance(ext)
            _instance(t)
            assert _build_instance(ext) == walked
        assert _build_instance(ext) == _build_instance(unlinked(ext)) == parent_build_instance(ext)


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([3, 4, 5]), data=st.data(), profile=st.booleans(),
       base_first=st.booleans())
def test_lifted_rows_match_a_walk_of_the_edges(q, data, profile, base_first):
    # An extension's rows and masks, lifted from its base's, and those of
    # its uniformized copy equal an unlinked copy's, whether the base's
    # search instance is built before the extension's views or after.
    t = unlinked(truncation(q))
    assert is_intersecting(t)[0]  # as validate_spec leaves it: ext tests its E3 edges
    anchor = data.draw(st.integers(0, q * q - 1), label="anchor")
    if profile:
        try:
            spec = select_f_by_profile(t, anchor, DegreeProfile(q + 1, (1,)), strict=False)
        except RyserError:
            spec = select_f_default(t, anchor)
    else:
        spec = select_f_default(t, anchor)
    ext = build_extension(spec, check=False)
    if base_first:
        _instance(t)
    for h in (ext, uniformize(ext)):
        plain = unlinked(h)
        assert is_intersecting(h) == is_intersecting(plain)
        assert h.edge_gids == plain.edge_gids
        assert h.edge_masks == plain.edge_masks
        assert h.incidence_masks == plain.incidence_masks
        assert h.edge_meets == plain.edge_meets
        assert _build_instance(h) == _build_instance(plain)
    if not base_first:
        _instance(t)
        assert _build_instance(ext) == _build_instance(unlinked(ext))
    assert t.edge_gids == unlinked(t).edge_gids


def test_covering_transversals_builds_no_cover_instance(monkeypatch):
    built = []
    build = solver._build_instance
    monkeypatch.setattr(solver, "_build_instance", lambda h: built.append(h) or build(h))
    ext = build_extension(select_f_default(truncate(build_plane(FiniteField(5))), 0), check=False)
    found, _ = covering_transversals(ext)
    assert found and built == []


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (5, 1), (7, 1)])
def test_mirror_sets_match_a_walk_of_each_side(p, k):
    # every anchor, default and profile F, and F edges that repeat, that
    # are the anchor edge or that miss their anchor vertex
    q = p ** k
    t = truncation(q)
    specs = list(extension_specs(t, q))
    for anchor in (0, q * q - 1):
        f = select_f_default(t, anchor).f_edges
        stray = next(i for i in range(q * q) if t.edges[anchor][1] not in t.edges[i])
        for odd in ((anchor,) + f[1:], (anchor, anchor) + f[2:], (anchor,) * (q + 1),
                    f[:1] + (stray,) + f[2:]):
            specs.append(ConstructionSpec(t, anchor, odd))
    for spec in specs:
        ext = build_extension(spec, check=False)
        for h in (ext, uniformize(ext)):
            assert list(solver._mirror_misses(h)) == mirror_misses_walk(h, spec), spec


def test_linked_spec_on_a_non_uniform_base_has_no_mirror_sets():
    # a base edge that loses a vertex off the anchor edge still meets it
    # once, so the unchecked build succeeds; its sides no longer hold a
    # vertex of every edge, and the mirror sets are not derived: no seeds
    # and no bound, so the search is an unlinked copy's
    t = truncation(4)
    f = select_f_default(t, 0).f_edges
    i = next(i for i in range(1, t.num_edges) if i not in f)
    gone = next(v for v in t.edges[i] if v not in t.edges[0])
    edges = list(t.edges)
    edges[i] = tuple(v for v in edges[i] if v != gone)
    spec = ConstructionSpec(PartiteHypergraph(t.sides, edges), 0, f)
    assert [v.code for v in validate_spec(spec)] == ["base-not-uniform"]
    ext = build_extension(spec, check=False)
    for h in (ext, uniformize(ext)):
        assert list(solver._mirror_misses(h)) == []
        assert _mirror_seeds(h) == {}
    got, own = cover_number(ext), cover_number(unlinked(ext))
    assert (got.tau, got.witness, got.nodes_explored) == (own.tau, own.witness, own.nodes_explored)


@st.composite
def explicit_specs(draw):
    """A spec on a truncation of order 3, 4 or 5 whose F edges are drawn
    as edge indices, from the edges through the anchor vertex of their
    side or from a pool of three edges and the anchor edge, so that
    repeated F edges (one merged E2 edge), the anchor edge as an F edge
    and F edges that miss their anchor vertex are all common."""
    q = draw(st.sampled_from([3, 4, 5]))
    t = truncation(q, draw(st.integers(0, q * q + q)))
    m = t.num_edges
    s_edge = draw(st.integers(0, m - 1))
    pool = draw(st.lists(st.integers(0, m - 1), min_size=3, max_size=3)) + [s_edge]
    f = []
    for v in t.edges[s_edge]:
        through = [i for i, e in enumerate(t.edges) if v in e]
        f.append(draw(st.sampled_from(through) | st.sampled_from(pool)))
    return ConstructionSpec(t, s_edge, tuple(f))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(explicit_specs())
def test_explicit_spec_chain_data_match_a_plain_copy(spec):
    check_extension_chain(spec)


def test_copies_of_a_uniformized_extension_build_their_own_data():
    u = uniformize(build_extension(select_f_default(truncation(4), 0), check=False))
    assert_derived_as_plain(u)
    moved = u.without_edge(0).with_edge(u.edges[0], u.edge_labels[0])
    for c in (u.without_edge(0), u.without_edge(7), u.without_edge(-1), moved):
        assert c._source is None and c._spec is None
        assert c.incidence_masks != u.incidence_masks
        assert_derived_as_plain(c)
        assert_search_as_parent(c)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_hypergraph())
def test_instance_and_matching_match_the_parent_search(h):
    # hypergraphs_with_tails draws degree-1 vertices, and edges made of
    # them alone; their uniformized copies put tails in every side
    assert_search_as_parent(h)
    if uniformizable(h):
        u = uniformize(h)
        assert_derived_as_plain(u)
        assert_search_as_parent(u)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(any_hypergraph(), disjoint_unions()))
def test_matching_number_matches_the_search(h):
    # about half of partite_hypergraphs' draws are intersecting, and those
    # are answered without a search, with the search's witness and nodes
    assert matching_number(h) == reference_matching(h)


def test_intersecting_matching_is_the_first_edge():
    empty = PartiteHypergraph([["a"]], [])
    one = PartiteHypergraph([["a"], ["b"]], [[(0, 0), (1, 0)]])
    meet = PartiteHypergraph([["a", "b"], ["c"]], [[(0, 0), (1, 0)], [(0, 1), (1, 0)]])
    apart = PartiteHypergraph([["a", "b"], ["c", "d"]], [[(0, 0), (1, 0)], [(0, 1), (1, 1)]])
    expect = {empty: (0, (), 1), one: (1, (0,), 2), meet: (1, (0,), 2), apart: (2, (0, 1), 3)}
    for h, want in expect.items():
        assert matching_number(h) == reference_matching(h) == MatchingResult(*want)
    for q in (3, 4, 5):
        t = truncation(q)
        chain = [t]
        for spec in extension_specs(t, q):
            ext = build_extension(spec, check=False)
            chain += [ext, uniformize(ext)]
        for h in chain:
            assert matching_number(h) == reference_matching(h) == \
                MatchingResult(1, (0,), h.num_edges)


@st.composite
def linked_extensions(draw):
    """(extension linked to its spec, whether its base's intersecting
    answer was read first).  The base is a fresh copy of a truncation of
    order 2, 3, 4 or 5 at a drawn point, with a drawn anchor; F is the
    default, the relaxed (1,)-profile one (q >= 3), or drawn per side
    from the edges through the anchor vertex of the side or from a pool
    of three edges and the anchor edge, so that F edges that miss their
    anchor vertex, repeat, or are the anchor edge (whose extension is not
    intersecting) are common."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    t = unlinked(truncation(q, draw(st.integers(0, q * q + q))))
    s_edge = draw(st.integers(0, t.num_edges - 1))
    mode = draw(st.sampled_from(["default", "drawn"] + (["profile"] if q >= 3 else [])))
    if mode == "default":
        spec = select_f_default(t, s_edge)
    elif mode == "profile":
        spec = select_f_by_profile(t, s_edge, DegreeProfile(q + 1, (1,)), strict=False)
    else:
        pool = draw(st.lists(st.integers(0, t.num_edges - 1), min_size=3, max_size=3))
        pool.append(s_edge)
        f = []
        for v in t.edges[s_edge]:
            through = [i for i, e in enumerate(t.edges) if v in e]
            f.append(draw(st.sampled_from(through) | st.sampled_from(pool)))
        spec = ConstructionSpec(t, s_edge, tuple(f))
    known = draw(st.booleans())
    if known:
        is_intersecting(t)
    return build_extension(spec, check=False), known


@settings(max_examples=300, deadline=None, derandomize=True)
@given(linked_extensions(), st.booleans(), st.booleans())
def test_linked_extension_intersecting_and_matching_match_a_walk(drawn, matching_first,
                                                                 meets_first):
    # Once the base is known to be intersecting, the extension reads its
    # answer from its E3 edges, even when its edge_meets is read first,
    # and builds no edge_meets unless one of them misses an edge; the
    # answer, the first disjoint pair and the matching are those of an
    # unlinked copy, on it and its uniformized copy.
    ext, known = drawn
    u = uniformize(ext)
    want = intersecting_walk(ext)
    if meets_first:
        assert ext.edge_meets == unlinked(ext).edge_meets
    nus = [matching_number(u), matching_number(ext)] if matching_first else None
    assert (is_intersecting(u), is_intersecting(ext)) == (want, want) == \
        (intersecting_walk(u), is_intersecting(unlinked(ext)))
    assert ("edge_meets" in vars(ext)) == (meets_first or not known or not want[0])
    nus = nus or [matching_number(u), matching_number(ext)]
    assert nus == [reference_matching(unlinked(u)), reference_matching(unlinked(ext))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(linked_extensions())
def test_spec_selection_answers_tau_and_intersecting(drawn):
    # The spec's selection holds s_j in every F_j exactly when no mirror
    # set covers; with a plane base that gives tau = r, and with no two
    # F_i - s_i disjoint the extension is intersecting.  cover_number
    # reads tau and the witness off the spec as an unlinked copy's
    # search finds them, after the same timeout check.
    ext, _ = drawn
    spec = ext._spec
    sel = spec.selection
    walk = mirror_misses_walk(ext, spec)
    assert all(sel.holds) == all(side and swap for *_, side, swap in walk)
    plane = truncated_plane_order(spec.base) is not None
    if plane and all(sel.holds) and not sel.disjoint:
        assert intersecting_walk(ext) == (True, None)
    with pytest.raises(SolverTimeout):
        cover_number(ext, timeout=0)
    for h in (ext, uniformize(build_extension(spec, check=False))):
        got, own = cover_number(h), cover_number(unlinked(h))
        assert (got.tau, got.witness) == (own.tau, own.witness)
        if plane and all(sel.holds):
            assert (got.tau, got.nodes_explored) == (spec.r, spec.r + 1)


def test_extension_of_a_base_with_disjoint_edges_names_the_first_pair():
    # X and Y are disjoint and meet the anchor S once each (in s1 and s2),
    # and every E3 edge meets every edge of the extension, so only the
    # base's answer tells the extension that its lifts of X and Y are
    # disjoint.  Sides 0..3 hold s_j at 0; X, Y, F_1..F_4 follow S.
    S = [(0, 0), (1, 0), (2, 0), (3, 0)]
    X = [(0, 0), (1, 1), (2, 1), (3, 2)]
    Y = [(0, 1), (1, 0), (2, 2), (3, 3)]
    F = [[(0, 0), (1, 1), (2, 2), (3, 1)], [(0, 1), (1, 0), (2, 1), (3, 1)],
         [(0, 1), (1, 1), (2, 0), (3, 1)], [(0, 1), (1, 1), (2, 3), (3, 0)]]
    base = PartiteHypergraph([["a", "b"], ["c", "d"], ["e", "f", "g", "h"], ["i", "j", "k", "l"]],
                             [S, X, Y, *F])
    spec = ConstructionSpec(base, 0, (3, 4, 5, 6))
    for known in (False, True):
        ext = build_extension(spec, check=False)
        full = (1 << ext.num_edges) - 1
        e3 = [sum(1 << i for i, e in enumerate(ext.edges) if set(e) & set(g)) for g in ext.edges[-4:]]
        assert e3 == [full] * 4
        if known:
            assert is_intersecting(base) == intersecting_walk(base) == (False, (1, 2))
        assert is_intersecting(ext) == intersecting_walk(ext) == (False, (0, 1))
        u = uniformize(ext)
        assert is_intersecting(u) == (False, (0, 1))
        assert matching_number(u) == reference_matching(unlinked(u))
        assert matching_number(u).nu >= 2


def test_extension_of_a_one_side_base_has_two_disjoint_edges():
    # r = 1: the base is its anchor edge, intersecting, and the extension
    # is F_1 = {s_1} and its one E3 edge {v_1}, which every other edge
    # misses; no E3 edge but the last one may be left untested.
    base = PartiteHypergraph([["a"]], [[(0, 0)]])
    assert is_intersecting(base) == (True, None)
    ext = build_extension(ConstructionSpec(base, 0, (0,)), check=False)
    assert ext.edges == (((0, 0),), ((1, 0),))
    assert is_intersecting(ext) == intersecting_walk(ext) == (False, (0, 1))
    assert matching_number(ext) == MatchingResult(2, (0, 1), 3)
