"""Projective planes, truncations, and the Bruck-Ryser exclusion test."""

import dataclasses

import pytest

from ryser.errors import DuplicateEdgeError, InvalidPointIndexError, PartitenessError
from ryser.gf import FiniteField
from ryser.plane import bruck_ryser_excluded, build_plane, truncate


def make_plane(q):
    # factor q = p^k
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    n = q
    while n > 1:
        n //= p
        k += 1
    return build_plane(FiniteField(p, k))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_counts_and_line_sizes(q):
    pp = make_plane(q)
    n = q * q + q + 1
    assert len(pp.points) == n
    assert len(pp.lines) == n
    assert all(len(pts) == q + 1 for pts in pp.line_points)
    # dual regularity: every point on exactly q+1 lines
    for pi in range(n):
        assert len(pp.lines_through(pi)) == q + 1


def test_fano_plane_shape():
    pp = make_plane(2)
    assert len(pp.points) == 7
    assert all(len(pts) == 3 for pts in pp.line_points)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_incidence_axioms_exhaustive(q):
    pp = make_plane(q)
    n = len(pp.points)
    # two distinct lines meet in exactly one point
    for i in range(n):
        for j in range(i + 1, n):
            assert len(set(pp.line_points[i]).intersection(pp.line_points[j])) == 1
    # two distinct points lie on exactly one common line
    point_masks = [0] * n
    for li, pts in enumerate(pp.line_points):
        for p in pts:
            point_masks[p] |= 1 << li
    for i in range(n):
        for j in range(i + 1, n):
            assert (point_masks[i] & point_masks[j]).bit_count() == 1


PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def reference_plane(field):
    """Points and per-line incident points by testing every point against
    every line: the slow construction `build_plane` must reproduce."""
    q = field.q
    pts = sorted(
        [(0, 0, 1)] + [(0, 1, c) for c in range(q)]
        + [(1, b, c) for b in range(q) for c in range(q)]
    )
    add, mul = field.add, field.mul
    line_points = tuple(
        tuple(
            pi for pi, (a, b, c) in enumerate(pts)
            if add(add(mul(a, u), mul(b, v)), mul(c, w)) == 0
        )
        for u, v, w in pts
    )
    return tuple(pts), line_points


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_build_plane_matches_dot_product_incidence(q):
    pp = make_plane(q)
    points, line_points = reference_plane(pp.field)
    assert pp.points == points
    assert pp.lines == points
    assert pp.line_points == line_points
    pencils = [[] for _ in points]
    for li, pts in enumerate(line_points):
        for p in pts:
            pencils[p].append(li)
    assert [list(pp.lines_through(i)) for i in range(len(points))] == pencils


class CountingField(FiniteField):
    """GF(p^k) that counts its multiplications."""

    def __init__(self, p, k=1):
        super().__init__(p, k)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)


def test_build_plane_multiplication_ceiling():
    # Solving each line's equation costs O(q) products per line; testing
    # every point against every line took about 1.7 M at q = 27.
    field = CountingField(3, 3)
    pp = build_plane(field)
    q = field.q
    assert field.muls <= 3 * (q * q + q + 1) * (q + 1)
    ref = make_plane(27)
    assert (pp.points, pp.line_points) == (ref.points, ref.line_points)


def test_build_deterministic():
    a = make_plane(3)
    b = make_plane(3)
    assert a.points == b.points
    assert a.line_points == b.line_points


def test_truncate_q3_structure():
    t = truncate(make_plane(3))
    assert t.num_sides == 4
    assert t.side_sizes == (3, 3, 3, 3)
    assert t.num_edges == 9
    assert all(len(e) == 4 for e in t.edges)
    # each edge takes one vertex per side
    for e in t.edges:
        assert sorted(s for s, _ in e) == [0, 1, 2, 3]
    # pairwise edge intersections all of size exactly 1 (36 pairs)
    masks = t.edge_masks
    pairs = 0
    for i in range(9):
        for j in range(i + 1, 9):
            assert (masks[i] & masks[j]).bit_count() == 1
            pairs += 1
    assert pairs == 36


def test_truncate_q2_cover_number_brute_force():
    t = truncate(make_plane(2))
    assert t.side_sizes == (2, 2, 2)
    assert t.num_edges == 4
    # brute-force tau over all subsets of size <= 2 of the 6 vertices
    from itertools import combinations
    masks = t.edge_masks
    gids = list(range(t.num_vertices))

    def covers(sub):
        m = sum(1 << g for g in sub)
        return all(e & m for e in masks)

    assert not any(covers(c) for c in combinations(gids, 1))
    assert any(covers(c) for c in combinations(gids, 2))


def test_truncate_sides_are_covers():
    t = truncate(make_plane(3))
    masks = t.edge_masks
    for s in range(t.num_sides):
        side_mask = sum(1 << t.gid((s, p)) for p in range(len(t.sides[s])))
        assert all(e & side_mask for e in masks)


def test_truncate_vertex_choices():
    pp = make_plane(3)
    t0 = truncate(pp)
    t0b = truncate(pp, 0)
    assert t0 == t0b
    t5 = truncate(pp, 5)
    assert t5.num_edges == 9
    with pytest.raises(InvalidPointIndexError):
        truncate(pp, 13)
    with pytest.raises(InvalidPointIndexError):
        truncate(pp, -1)


def test_bruck_ryser_values():
    assert bruck_ryser_excluded(6) is True
    assert bruck_ryser_excluded(5) is False     # 5 = 1 + 4
    assert bruck_ryser_excluded(10) is False    # 10 = 1 + 9
    assert bruck_ryser_excluded(14) is True
    assert bruck_ryser_excluded(21) is True     # 21 = 1 mod 4, not a sum of two squares
    with pytest.raises(ValueError):
        bruck_ryser_excluded(1)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                                 (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (2, 5)])
def test_build_plane_table_path_equals_the_method_path(p, k):
    # a field of order above gf.TABLE_LIMIT has no tables; one with its
    # tables removed runs that branch of _line_points at every order
    tables = CountingField(p, k)
    methods = CountingField(p, k)
    methods.add_table = methods.mul_table = methods._inv = None
    a, b = build_plane(tables), build_plane(methods)
    assert (a.points, a.lines, a.line_points) == (b.points, b.lines, b.line_points)
    q = tables.q
    assert tables.muls <= q < q * q <= methods.muls


def replace_line(pg, li, pts):
    """pg with line li's points replaced: no longer a projective plane."""
    pts = tuple(sorted(pts))
    return dataclasses.replace(
        pg,
        line_points=pg.line_points[:li] + (pts,) + pg.line_points[li + 1:],
    )


def test_truncate_rejects_a_hand_built_non_plane():
    pg = make_plane(3)
    v = 0
    pencil = pg.lines_through(v)
    other = [li for li in range(len(pg.lines)) if li not in pencil]
    li = other[0]
    side0 = [p for p in pg.line_points[pencil[0]] if p != v]
    side1 = [p for p in pg.line_points[pencil[1]] if p != v]
    # the points of pencil line 1 are all off line li but one
    keep = [p for p in pg.line_points[li] if p not in side0 and p not in side1]
    twice = replace_line(pg, li, keep + side0[:2])           # meets pencil line 0 twice
    with pytest.raises(PartitenessError):
        truncate(twice, v)
    missed = replace_line(pg, li, keep + side0[:1])           # misses pencil line 1
    with pytest.raises(PartitenessError):
        truncate(missed, v)
    same = replace_line(pg, li, pg.line_points[other[1]])     # two lines, one point set
    with pytest.raises(DuplicateEdgeError):
        truncate(same, v)
    assert truncate(replace_line(pg, li, pg.line_points[li]), v) == truncate(pg, v)
