"""`exact_isomorphic` against the earlier search that kept its own
vertex-pair codegree dict and per-vertex degree tuple: both must return
the same `IsoResult` (verdict, side permutation and vertex map) on
relabelled and perturbed pairs, and both refuse pairs over the guard."""

from dataclasses import dataclass
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ryser.analysis import ISO_VERTEX_GUARD, IsoResult, exact_isomorphic
from ryser.construct import build_extension, select_f_default, uniformize
from ryser.errors import TooLargeError
from ryser.gf import FiniteField
from ryser.hypergraph import PartiteHypergraph
from ryser.plane import build_plane, truncate

ORDERS = {2: (2, 1), 3: (3, 1), 4: (2, 2)}


# --- the reference search, as it stood before it read incidence masks ---


@dataclass(frozen=True)
class _DegreeStats:
    side_degrees: tuple
    degrees: tuple
    by_vertex: tuple


def degree_stats(h):
    """The degree record the reference reads, `by_vertex` included."""
    deg = tuple(sum(1 for e in h.edges if v in e) for v in h.vertices())
    off = h.offsets
    per_side = tuple(tuple(sorted(deg[off[s]:off[s + 1]])) for s in range(h.num_sides))
    return _DegreeStats(per_side, tuple(sorted(deg)), deg)


def _codegrees(h):
    co = {}
    for e in h.edges:
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                key = (e[i], e[j])
                co[key] = co.get(key, 0) + 1
    return co


def reference_exact_isomorphic(a: PartiteHypergraph, b: PartiteHypergraph) -> IsoResult:
    """Backtracking search for a vertex bijection mapping edges onto
    edges, where whole sides map to whole sides (side order may be
    permuted).  Degree and codegree profiles prune the search."""
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
    co_a = _codegrees(a)
    co_b = _codegrees(b)
    b_edge_sets = set(map(frozenset, b.edges))

    def co(codict, u, v):
        return codict.get((u, v)) or codict.get((v, u), 0)

    mapping = {}
    side_perm = [None] * k
    used_sides = set()

    def assign_side(si):
        if si == k:
            mapped = {
                frozenset(mapping[v] for v in e) for e in a.edges
            }
            return mapped == b_edge_sets
        size = len(a.sides[si])
        degs = dsa.side_degrees[si]
        for tj in range(k):
            if tj in used_sides:
                continue
            if len(b.sides[tj]) != size or dsb.side_degrees[tj] != degs:
                continue
            used_sides.add(tj)
            side_perm[si] = tj
            if assign_vertex(si, tj, 0, set()):
                return True
            side_perm[si] = None
            used_sides.discard(tj)
        return False

    def assign_vertex(si, tj, p, used):
        if p == len(a.sides[si]):
            return assign_side(si + 1)
        u = (si, p)
        du = dsa.by_vertex[a.offsets[si] + p]
        for q in range(len(b.sides[tj])):
            w = (tj, q)
            if w in used or dsb.by_vertex[b.offsets[tj] + q] != du:
                continue
            if any(co(co_a, u, x) != co(co_b, w, y) for x, y in mapping.items()):
                continue
            mapping[u] = w
            used.add(w)
            if assign_vertex(si, tj, p + 1, used):
                return True
            del mapping[u]
            used.discard(w)
        return False

    if assign_side(0):
        return IsoResult(True, tuple(side_perm), tuple(sorted(mapping.items())))
    return no


# --- pairs to compare ---


@lru_cache(maxsize=None)
def truncation(q):
    return truncate(build_plane(FiniteField(*ORDERS[q])))


@lru_cache(maxsize=None)
def extension(q, anchor, uniform):
    h = build_extension(select_f_default(truncation(q), anchor), check=False)
    return uniformize(h) if uniform else h


@st.composite
def partite_hypergraphs(draw):
    """Random partite hypergraphs, empty sides included, with edges of
    one size or two consecutive sizes."""
    k = draw(st.integers(1, 4))
    side_sizes = [draw(st.integers(0, 3)) for _ in range(k)]
    filled = [s for s in range(k) if side_sizes[s]]
    edges = {}
    if filled:
        a = draw(st.integers(1, len(filled)))
        for _ in range(draw(st.integers(0, 9))):
            size = draw(st.sampled_from(sorted({a, min(a + 1, len(filled))})))
            sides = draw(st.lists(st.sampled_from(filled), min_size=size, max_size=size,
                                  unique=True))
            e = tuple(sorted((s, draw(st.integers(0, side_sizes[s] - 1))) for s in sides))
            edges[e] = None
    labels = [[f"{s}:{p}" for p in range(n)] for s, n in enumerate(side_sizes)]
    return PartiteHypergraph(labels, list(edges))


@st.composite
def relabelled(draw, h):
    """h with its sides, the vertices within each side and its edges
    put in a random order."""
    k = h.num_sides
    side_perm = draw(st.permutations(range(k)))          # old side s -> side_perm[s]
    pos_perms = [draw(st.permutations(range(len(side)))) for side in h.sides]
    sides = [None] * k
    for s, side in enumerate(h.sides):
        labels = [None] * len(side)
        for p, label in enumerate(side):
            labels[pos_perms[s][p]] = label
        sides[side_perm[s]] = labels
    edges = [tuple(sorted((side_perm[s], pos_perms[s][p]) for s, p in e)) for e in h.edges]
    return PartiteHypergraph(sides, draw(st.permutations(edges)))


@st.composite
def one_edge_swapped(draw, h):
    """h with one vertex of one edge moved to another vertex of its
    side; h itself when no such move leaves the edges distinct."""
    moves = [(i, j, p) for i, e in enumerate(h.edges) for j, (s, _) in enumerate(e)
             for p in range(len(h.sides[s])) if p != e[j][1]]
    edges = list(h.edges)
    for i, j, p in draw(st.permutations(moves)) if moves else ():
        e = edges[i]
        moved = tuple(sorted(e[:j] + ((e[j][0], p),) + e[j + 1:]))
        if moved not in edges:
            edges[i] = moved
            return PartiteHypergraph(h.sides, edges)
    return h


@st.composite
def pairs(draw):
    """(a, b): b is a relabelled copy of a, of a with one edge swapped,
    or (for extensions) of the extension at another anchor."""
    source = draw(st.sampled_from(["random", "extension"]))
    if source == "random":
        a = draw(partite_hypergraphs())
        other = a
    else:
        q = draw(st.sampled_from(sorted(ORDERS)))
        uniform = q < 4 and draw(st.booleans())          # two q=4 uniformized are over the guard
        anchor = draw(st.integers(0, q * q - 1))
        a = extension(q, anchor, uniform)
        other = extension(q, draw(st.integers(0, q * q - 1)), uniform)
    kind = draw(st.sampled_from(["relabel", "swap", "other"]))
    if kind == "swap":
        other = draw(one_edge_swapped(a))
    elif kind == "relabel":
        other = a
    return a, draw(relabelled(other))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs())
def test_exact_isomorphic_matches_the_reference(pair):
    a, b = pair
    got = exact_isomorphic(a, b)
    assert got == reference_exact_isomorphic(a, b)
    if got.isomorphic:
        m = dict(got.vertex_map)
        assert {frozenset(m[v] for v in e) for e in a.edges} == set(map(frozenset, b.edges))


def test_reference_pairs_cover_both_verdicts():
    """The q=3 extensions at anchors 0 and 5 are isomorphic; one swapped
    edge breaks that, and both searches see it."""
    a = extension(3, 0, False)
    edges = list(a.edges)
    e = edges[0]
    edges[0] = tuple(sorted(e[1:] + ((0, (e[0][1] + 1) % 3),)))
    b = PartiteHypergraph(a.sides, edges)
    for x, y, iso in ((a, extension(3, 5, False), True), (a, b, False)):
        got = exact_isomorphic(x, y)
        assert got == reference_exact_isomorphic(x, y)
        assert got.isomorphic is iso


def _one_side(n, edges=()):
    return PartiteHypergraph([[str(p) for p in range(n)]], edges)


@pytest.mark.parametrize("a, b", [
    (extension(4, 0, True), extension(4, 0, True)),          # 35 + 35 vertices
    (extension(4, 0, True), _one_side(30)),                  # 35 + 30
    (_one_side(33), _one_side(32)),                          # cheap checks would pass
    (_one_side(60, [((0, 0),)]), extension(2, 0, False)),    # cheap checks would reject
], ids=["q4-uniform-pair", "q4-uniform-and-one-side", "one-side-65", "sides-differ-65"])
def test_over_guard_pairs_raise(a, b):
    assert a.num_vertices + b.num_vertices > ISO_VERTEX_GUARD
    for iso in (exact_isomorphic, reference_exact_isomorphic):
        with pytest.raises(TooLargeError):
            iso(a, b)
        with pytest.raises(TooLargeError):
            iso(b, a)


def test_guard_admits_exactly_its_vertex_count():
    a, b = _one_side(32), _one_side(ISO_VERTEX_GUARD - 32)
    assert exact_isomorphic(a, b) == reference_exact_isomorphic(a, b)
    assert exact_isomorphic(a, b).isomorphic
