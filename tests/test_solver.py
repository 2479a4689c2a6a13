"""Exact solver: certificates, enumeration completeness, oracle agreement."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ryser.construct import build_extension, select_f_default, uniformize
from ryser.errors import EmptyHypergraphError, NonUniformError, SolverTimeout, TooLargeError
from ryser.gf import FiniteField
from ryser.hypergraph import PartiteHypergraph, is_intersecting
from ryser.plane import build_plane, truncate
from ryser.solver import (
    MatchingResult,
    _Deadline,
    brute_force_cover_oracle,
    cover_number,
    matching_number,
    verify_ryser_ratio,
)


@pytest.fixture(scope="module")
def t4():
    return truncate(build_plane(FiniteField(3)))


@pytest.fixture(scope="module")
def t3():
    return truncate(build_plane(FiniteField(2)))


def side_vertex_set(h, s):
    return frozenset((s, p) for p in range(len(h.sides[s])))


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
    c = cover_number(h, enumerate_all=True, jobs=2)
    assert (a.tau, a.witness, a.all_min_covers) == (c.tau, c.witness, c.all_min_covers)
    d = cover_number(t4, jobs=2)
    e = cover_number(t4)
    assert (d.tau, d.witness) == (e.tau, e.witness)
    # a decide run reads root branches in order and stops at the first
    # cover, so it searches exactly what the serial run searches
    t6 = truncate(build_plane(FiniteField(5)))
    for h, hint in ((t6, 5), (uniformize(build_extension(select_f_default(t6, 0), check=False)), 6)):
        serial = cover_number(h, upper_hint=hint)
        pooled = cover_number(h, upper_hint=hint, jobs=2)
        assert (pooled.tau, pooled.witness, pooled.nodes_explored) == \
            (serial.tau, serial.witness, serial.nodes_explored)
    assert c.nodes_explored == a.nodes_explored


def test_timeout_raises():
    t5 = truncate(build_plane(FiniteField(2, 2)))
    with pytest.raises(SolverTimeout):
        cover_number(t5, timeout=0.0)


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
    assert cover_number(ext, upper_hint=6).nodes_explored <= 490


def test_uniformized_node_ceilings():
    # A decide run never picks the degree-1 tail vertices that uniformize
    # adds and branches on the edges they lengthen first, so it searches
    # the tree of the mixed extension (49 and 81 nodes when written;
    # 267 and 987 before tails were skipped).
    for q, ceiling in ((5, 60), (7, 100)):
        t = truncate(build_plane(FiniteField(q)))
        u = uniformize(build_extension(select_f_default(t, 0), check=False))
        assert cover_number(u, upper_hint=q + 1).nodes_explored <= ceiling


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


def test_dominated_tails_pool_matches_serial():
    t6 = truncate(build_plane(FiniteField(5)))
    u = uniformize(build_extension(select_f_default(t6, 3), check=False))
    tails = dominated_vertices(u)
    assert tails
    serial = cover_number(u)
    pooled = cover_number(u, jobs=2)
    assert (pooled.tau, pooled.witness, pooled.nodes_explored) == \
        (serial.tau, serial.witness, serial.nodes_explored)
    assert serial.tau == 6 and not set(serial.witness) & tails


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
    assert matching_number(h) == reference_matching_number(h)
