"""Extension construction, uniformization, and profile machinery."""

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ryser import construct
from ryser.cli import factor_prime_power
from ryser.errors import (
    BadEdgeSizeError,
    InvalidProfileError,
    InvalidSpecError,
    MissingLabelsError,
)
from ryser.construct import (
    ConstructionSpec,
    DegreeProfile,
    build_extension,
    extract_pair_subhypergraph,
    profile_count,
    select_f_by_profile,
    select_f_default,
    truncated_plane_order,
    uniformize,
    validate_spec,
)
from ryser.gf import FiniteField
from ryser.hypergraph import (
    PartiteHypergraph,
    degree_stats,
    is_intersecting,
)
from ryser.plane import build_plane, truncate
from ryser.solver import cover_number

from oracles import brute_force_cover_oracle, cover_mirror, intersection_size_profile


def make_t(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    n = q
    while n > 1:
        n //= p
        k += 1
    return truncate(build_plane(FiniteField(p, k)))


def default_f(base, s_edge):
    anchor = tuple(sorted(base.edges[s_edge]))
    f = []
    for i in range(base.num_sides):
        f.append(next(
            e for e, es in enumerate(map(frozenset, base.edges))
            if anchor[i] in es and e != s_edge
        ))
    return ConstructionSpec(base, s_edge, tuple(f))


@pytest.fixture(scope="module")
def t4():
    return make_t(3)


@pytest.fixture(scope="module")
def spec4(t4):
    return default_f(t4, 0)


@pytest.fixture(scope="module")
def h4(spec4):
    return build_extension(spec4)


def test_validate_all_selected_equal_anchor(t4):
    spec = ConstructionSpec(t4, 0, (0, 0, 0, 0))
    assert validate_spec(spec) == []


def test_default_selection_matches_least_index(t4, spec4):
    from ryser.construct import select_f_default

    assert select_f_default(t4, 0) == spec4
    assert all(fe != spec4.s_edge for fe in spec4.f_edges)
    assert len(set(spec4.f_edges)) == 4  # automatically distinct


def test_validate_t3_uniqueness_fails():
    t3 = make_t(2)
    spec = ConstructionSpec(t3, 0, (0, 0, 0))
    violations = validate_spec(spec)
    codes = [v.code for v in violations]
    assert "covers-not-sides" in codes
    # cross-check by exhaustive enumeration: the reduced base has
    # minimum covers beyond the sides
    reduced = t3.without_edge(0)
    res = cover_number(reduced, enumerate_all=True)
    assert res.tau == 2
    sides = {frozenset((s, p) for p in range(2)) for s in range(3)}
    assert {frozenset(c) for c in res.all_min_covers} > sides


def test_validate_selected_must_contain_anchor_vertex(t4):
    anchor = tuple(sorted(t4.edges[0]))
    bad = next(
        e for e, es in enumerate(map(frozenset, t4.edges)) if anchor[1] not in es
    )
    spec = ConstructionSpec(t4, 0, (0, bad, 0, 0))
    codes = [v.code for v in validate_spec(spec)]
    assert "anchor-in-selected" in codes


def test_extension_counts_and_structure(h4):
    labs = h4.edge_labels
    assert sum(l.startswith("E1(") for l in labs) == 8
    assert sum(l.startswith("E2(") for l in labs) == 4
    assert sum(l.startswith("E3(") for l in labs) == 4
    assert h4.num_edges == 16
    assert h4.num_sides == 5
    assert h4.side_sizes == (3, 3, 3, 3, 4)
    assert sorted({len(e) for e in h4.edges}) == [4, 5]


def test_extension_excludes_anchor_when_selected_differ(h4, spec4, t4):
    anchor_set = frozenset(t4.edges[spec4.s_edge])
    assert anchor_set not in set(map(frozenset, h4.edges))


def test_extension_intersecting_by_class(h4):
    ok, _ = is_intersecting(h4)
    assert ok
    cls = {}
    for i, lab in enumerate(h4.edge_labels):
        cls.setdefault(lab[:2], []).append(i)
    masks = h4.edge_masks
    for a, b in (("E1", "E2"), ("E2", "E3"), ("E1", "E3")):
        for i in cls[a]:
            for j in cls[b]:
                assert masks[i] & masks[j], (a, b, i, j)


def test_extension_tau_equals_r(h4):
    assert cover_number(h4).tau == 4
    assert brute_force_cover_oracle(h4) == 4


def test_near_cover_dichotomy(h4, spec4):
    # the two size-r near-covers each miss exactly their paired edge
    anchor = spec4.anchor_vertices()
    for i in range(4):
        side = frozenset((i, p) for p in range(3))
        shifted = side - {anchor[i]} | {spec4.mirror_vertex(i)}
        e2 = next(
            set(e) for e, l in zip(h4.edges, h4.edge_labels) if l == f"E2({i+1})"
        )
        e3 = next(
            set(e) for e, l in zip(h4.edges, h4.edge_labels) if l == f"E3({i+1})"
        )
        assert not side & e3
        assert not shifted & e2


def test_selected_equal_anchor_dedup(t4):
    spec = ConstructionSpec(t4, 0, (0, 0, 0, 0))
    h = build_extension(spec)
    e2 = [l for l in h.edge_labels if l.startswith("E2(")]
    assert e2 == ["E2(1,2,3,4)"]
    # the anchor edge is now itself an edge of the extension
    assert frozenset(t4.edges[0]) in set(map(frozenset, h.edges))
    ok, _ = is_intersecting(h)
    assert ok
    assert cover_number(h).tau == 4
    pairs = extract_pair_subhypergraph(h)
    assert pairs.num_edges <= 5


def test_build_rejects_invalid(t4):
    anchor = tuple(sorted(t4.edges[0]))
    bad = next(e for e, es in enumerate(map(frozenset, t4.edges)) if anchor[0] not in es)
    with pytest.raises(InvalidSpecError):
        build_extension(ConstructionSpec(t4, 0, (bad, 0, 0, 0)))


@pytest.mark.parametrize("s_edge", [-1, -9, 9, 100])
def test_selectors_reject_an_anchor_index_out_of_range(t4, s_edge):
    # -1 used to select the last edge as the anchor, yielding a spec
    # that validate_spec then rejected; 9 = m raised IndexError
    assert t4.num_edges == 9
    with pytest.raises(InvalidSpecError, match="out of range 0..8"):
        select_f_default(t4, s_edge)
    with pytest.raises(InvalidSpecError, match="out of range 0..8"):
        select_f_by_profile(t4, s_edge, DegreeProfile(4, (1,)), strict=False)


def test_cover_mirror_cases(h4, spec4, t4):
    v1 = frozenset((0, p) for p in range(3))
    assert cover_mirror(v1, spec4) == v1
    anchor = spec4.anchor_vertices()
    moved = v1 - {anchor[0]} | {spec4.mirror_vertex(0)}
    assert cover_mirror(moved, spec4) == v1
    # every minimum cover of the extension mirrors to a cover of base-S
    res = cover_number(h4, enumerate_all=True)
    reduced = t4.without_edge(spec4.s_edge)
    for cov in res.all_min_covers:
        mirrored = cover_mirror(cov, spec4)
        assert all(set(e) & mirrored for e in reduced.edges)


def test_uniformize(h4):
    u = uniformize(h4)
    assert u.uniformity == 5
    assert u.num_sides == 5
    assert u.num_vertices == h4.num_vertices + 8
    assert u.side_sizes == (4, 4, 4, 4, 8)
    ok, _ = is_intersecting(u)
    assert ok
    assert cover_number(u).tau == 4
    assert brute_force_cover_oracle(u) == 4
    # nu preserved as well
    from ryser.solver import matching_number
    assert matching_number(u).nu == matching_number(h4).nu == 1
    # tails are private: every new vertex has degree 1
    st = degree_stats(u)
    tail_degrees = [
        st.side_degrees[s].count(1) for s in range(5)
    ]
    assert sum(tail_degrees) >= 8
    # idempotent on uniform inputs
    assert uniformize(u) is u


def test_uniformize_identity_and_errors(t4):
    assert uniformize(t4) is t4
    bad = PartiteHypergraph(
        [["a"], ["b"], ["c"], ["d"]],
        [[(0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0)]],
    )
    with pytest.raises(BadEdgeSizeError):
        uniformize(bad)


def test_intersection_size_law(h4):
    prof = intersection_size_profile(h4)
    assert set(prof) <= {1, 2, 3, 4}
    assert prof[3] == 4  # exactly r pairs realize r-1


def test_profile_validation():
    p = DegreeProfile(26, (4,))
    assert p.structural_errors() == []
    assert p.counting_errors() == []
    assert p.x_last == 21
    bad = DegreeProfile(26, (3,))
    assert bad.counting_errors()
    small = DegreeProfile(5, (1,))
    assert small.structural_errors() == []
    assert small.counting_errors()


def test_profile_selection_small_relaxed():
    t5 = make_t(4)
    prof = DegreeProfile(5, (1,))
    with pytest.raises(InvalidProfileError):
        select_f_by_profile(t5, 0, prof)  # strict by default
    spec = select_f_by_profile(t5, 0, prof, strict=False)
    assert validate_spec(spec) == []
    h = build_extension(spec)
    pairs = extract_pair_subhypergraph(h)
    st = degree_stats(pairs)
    assert st.nonzero(0) == (1, 2, 6)  # {1, 2*x_1, 2*x_2} with x = (1, 3)


def test_profile_count_values():
    pc = profile_count(26, t=1)
    assert (pc.value_lo, pc.value_hi, pc.count) == (4, 5, 2)
    assert profile_count(26, delta=0.3).t == 1
    assert profile_count(9, t=5).count == 0
    assert "degenerate" in profile_count(8, t=1).note
    with pytest.raises(ValueError):
        profile_count(26)
    # brute-force oracle: enumerate multisets directly
    from itertools import combinations_with_replacement
    for t in (1, 2, 3):
        pc = profile_count(101, t=t)
        brute = sum(1 for _ in combinations_with_replacement(
            range(pc.value_lo, pc.value_hi + 1), t))
        assert pc.count == brute
        assert pc.formula_bound == brute


def test_extract_pair_subhypergraph(h4):
    pairs = extract_pair_subhypergraph(h4)
    assert pairs.num_edges == 8
    assert pairs.sides == h4.sides
    assert all(l.startswith(("E2(", "E3(")) for l in pairs.edge_labels)
    stripped = PartiteHypergraph(h4.sides, h4.edges, None, name="x")
    with pytest.raises(MissingLabelsError):
        extract_pair_subhypergraph(stripped)


def test_all_small_covers_mirror(h4, spec4, t4):
    # every cover of the extension of size <= r mirrors to a cover of
    # the reduced base: exhaustive over all vertex subsets of size <= 4
    reduced = t4.without_edge(spec4.s_edge)
    verts = list(h4.vertices())
    masks = h4.edge_masks
    gid = h4.gid
    checked = 0
    for size in range(1, 5):
        for sub in combinations(verts, size):
            m = 0
            for v in sub:
                m |= 1 << gid(v)
            if all(e & m for e in masks):
                mirrored = cover_mirror(sub, spec4)
                assert all(set(e) & mirrored for e in reduced.edges)
                checked += 1
    assert checked > 0


# --- cover uniqueness: the counting argument against the search ---


@lru_cache(maxsize=None)
def plane_of(q):
    return build_plane(FiniteField(*factor_prime_power(q)))


def structural_violations(spec):
    return validate_spec(spec, check_cover_uniqueness=False)


def search_violations(spec):
    """The violations of the exhaustive route: the structural checks,
    then the minimum-cover enumeration itself."""
    return structural_violations(spec) or construct._reduced_cover_violations(spec, None)


def f_mode_spec(base, s_edge, mode):
    if mode == "default":
        return select_f_default(base, s_edge)
    return select_f_by_profile(base, s_edge, DegreeProfile(base.num_sides, (1,)), strict=False)


@pytest.fixture
def cover_calls(monkeypatch):
    """The hypergraphs `validate_spec` hands to `cover_number`."""
    calls = []

    def counted(h, *args, **kwargs):
        calls.append(h)
        return cover_number(h, *args, **kwargs)

    monkeypatch.setattr(construct, "cover_number", counted)
    return calls


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4, 5]), st.data())
def test_counting_route_matches_the_search(q, data):
    base = truncate(plane_of(q), data.draw(st.integers(0, q * q + q)))
    spec = f_mode_spec(base, data.draw(st.integers(0, q * q - 1)),
                       data.draw(st.sampled_from(["default", "profile"])))
    assert truncated_plane_order(base) == q
    assert validate_spec(spec) == search_violations(spec) == []


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_counting_route_matches_the_search_at_every_anchor(q, cover_calls):
    base = truncate(plane_of(q), 0)
    for s_edge in range(q * q):
        for mode in ("default", "profile"):
            spec = f_mode_spec(base, s_edge, mode)
            assert validate_spec(spec) == []
            assert cover_calls == []
            assert search_violations(spec) == []
            cover_calls.clear()


def star_base():
    # Four sides of three; the anchor (every vertex 0) and the eight edges
    # through (0, 0) that miss the other anchor vertices.  Intersecting,
    # nine edges, but edges share up to three vertices.
    edges = [((0, 0), (1, 0), (2, 0), (3, 0))]
    edges += [((0, 0), (1, a), (2, b), (3, c))
              for a in (1, 2) for b in (1, 2) for c in (1, 2)]
    return PartiteHypergraph([["a", "b", "c"]] * 4, edges)


def plane_less_one_edge():
    return make_t(3).without_edge(5)


@pytest.mark.parametrize("base, f_edges", [
    (make_t(2), None),
    (plane_less_one_edge(), None),
    (star_base(), (0, 0, 0, 0)),
])
def test_bases_failing_the_test_take_the_search(base, f_edges, cover_calls):
    spec = (select_f_default(base, 0) if f_edges is None
            else ConstructionSpec(base, 0, f_edges))
    assert structural_violations(spec) == []
    assert truncated_plane_order(base) is None
    got = validate_spec(spec)
    assert len(cover_calls) == 1
    assert got == search_violations(spec)
    assert got  # none of these reduced bases has only the sides as minimum covers


def test_paper_scale_uniqueness_makes_no_cover_call(cover_calls):
    base = truncate(plane_of(25), 0)
    assert validate_spec(select_f_default(base, 0)) == []
    assert truncated_plane_order(base) == 25
    assert cover_calls == []



# --- mask-based anchor, overlap and lifting against the frozenset loops ---


EARLY_CODES = ("base-not-uniform", "base-too-small", "base-not-intersecting", "anchor-index")


def reference_structural_violations(spec):
    """`validate_spec(spec, check_cover_uniqueness=False)` with one
    frozenset intersection per base edge and two frozensets per F pair."""
    base = spec.base
    r = base.num_sides
    out = validate_spec(spec, check_cover_uniqueness=False)
    if out and out[0].code in EARLY_CODES:  # checks that stop before the anchor test
        return out
    out = []
    anchor_set = frozenset(base.edges[spec.s_edge])
    for i, e in enumerate(base.edges):
        if i == spec.s_edge:
            continue
        k = len(anchor_set.intersection(e))
        if k != 1:
            out.append(construct.Violation(
                "anchor-intersection",
                f"anchor edge meets edge {i} in {k} vertices, expected exactly 1",
            ))
    if len(spec.f_edges) != r:
        out.append(construct.Violation(
            "selected-count", f"need {r} selected edges, got {len(spec.f_edges)}"))
        return out
    anchor = spec.anchor_vertices()
    fsets = []
    for i, fe in enumerate(spec.f_edges):
        if not 0 <= fe < base.num_edges:
            out.append(construct.Violation("selected-index",
                                           f"F_{i+1} edge index {fe} out of range"))
            return out
        fset = frozenset(base.edges[fe])
        fsets.append(fset)
        if anchor[i] not in fset:
            out.append(construct.Violation(
                "anchor-in-selected",
                f"F_{i+1} (edge {fe}) does not contain the side-{i} anchor vertex",
            ))
    for i in range(r):
        for j in range(i + 1, r):
            if not (fsets[i] - {anchor[i]}) & (fsets[j] - {anchor[j]}):
                out.append(construct.Violation(
                    "selected-overlap",
                    f"(F_{i+1} - s_{i+1}) and (F_{j+1} - s_{j+1}) are disjoint",
                ))
    return out


def reference_build_extension(spec):
    """`build_extension(spec, check=False)` lifting each E1 edge by one
    frozenset intersection with the anchor."""
    base = spec.base
    r = base.num_sides
    anchor = spec.anchor_vertices()
    anchor_set = frozenset(anchor)
    mirror = tuple(spec.mirror_vertex(i) for i in range(r))
    sides = base.sides + (tuple(f"v{i+1}" for i in range(r)),)
    edges, labels = [], []
    for idx, e in enumerate(base.edges):
        if idx == spec.s_edge:
            continue
        ((si, _),) = anchor_set.intersection(e)
        edges.append(e + (mirror[si],))
        labels.append(f"E1({idx})")
    seen = {}
    for i in range(r):
        f = base.edges[spec.f_edges[i]]
        if f in seen:
            pos = seen[f]
            labels[pos] = labels[pos][:-1] + f",{i+1})"
            continue
        seen[f] = len(edges)
        edges.append(f)
        labels.append(f"E2({i+1})")
    for i in range(r):
        f = base.edges[spec.f_edges[i]]
        edges.append(tuple(v for v in f if v != anchor[i]) + (mirror[i],))
        labels.append(f"E3({i+1})")
    name = f"{base.name}-ext" if base.name else "ext"
    h = PartiteHypergraph(sides, edges, labels, name)
    h._spec = spec
    return h


def extension_outcome(build, spec):
    """(sides, edges, labels, name, spec) of the extension, or the type
    and message of what the build raised."""
    try:
        h = build(spec)
    except Exception as e:  # noqa: BLE001 - the exception is the result
        return type(e), str(e)
    return h.sides, h.edges, h.edge_labels, h.name, h._spec


def same_as_reference(spec):
    assert (validate_spec(spec, check_cover_uniqueness=False)
            == reference_structural_violations(spec))
    assert (extension_outcome(lambda s: build_extension(s, check=False), spec)
            == extension_outcome(reference_build_extension, spec))


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_masks_match_the_frozenset_loops_at_every_anchor(q):
    base = truncate(plane_of(q), 0)
    for s_edge in range(q * q):
        for mode in ("default", "profile"):
            spec = f_mode_spec(base, s_edge, mode)
            same_as_reference(spec)
            assert validate_spec(spec, check_cover_uniqueness=False) == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4, 5]), st.data())
def test_masks_match_the_frozenset_loops_on_corrupted_specs(q, data):
    base = truncate(plane_of(q), data.draw(st.integers(0, q * q + q)))
    m, r = base.num_edges, base.num_sides
    spec = f_mode_spec(base, data.draw(st.integers(0, m - 1)),
                       data.draw(st.sampled_from(["default", "profile"])))
    f = list(spec.f_edges)
    anchor = spec.anchor_vertices()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, r - 1))
        kind = data.draw(st.sampled_from(["out-of-range", "misses-anchor", "any-edge"]))
        if kind == "out-of-range":
            f[i] = data.draw(st.integers(m, m + 5) | st.integers(-5, -1))
        elif kind == "misses-anchor":
            f[i] = data.draw(st.sampled_from(
                [j for j, e in enumerate(base.edges) if anchor[i] not in e]))
        else:  # often makes some (F_i - s_i) and (F_j - s_j) disjoint
            f[i] = data.draw(st.integers(0, m - 1))
    corrupted = ConstructionSpec(base, spec.s_edge, tuple(f))
    same_as_reference(corrupted)


def anchor_law_base(edge):
    """Three sides of two vertices: the anchor (every vertex 0), one edge
    meeting it in (0, 0) alone, and `edge`."""
    return PartiteHypergraph([["a", "b"]] * 3, [
        ((0, 0), (1, 0), (2, 0)),
        ((0, 0), (1, 1), (2, 1)),
        edge,
    ])


@pytest.mark.parametrize("edge, k", [
    (((0, 0), (1, 0), (2, 1)), 2),   # meets the anchor twice
    (((0, 1), (1, 1), (2, 1)), 0),   # misses it: the base is not intersecting
])
def test_an_edge_off_the_anchor_law_is_named(edge, k):
    spec = ConstructionSpec(anchor_law_base(edge), 0, (1, 0, 0))
    message = f"anchor-intersection: anchor edge meets edge 2 in {k} vertices, expected exactly 1"
    with pytest.raises(InvalidSpecError) as ei:
        build_extension(spec, check=False)
    assert str(ei.value) == message
    with pytest.raises(ValueError):  # the frozenset loop's tuple unpacking
        reference_build_extension(spec)
    assert (validate_spec(spec, check_cover_uniqueness=False)
            == reference_structural_violations(spec))
    if k == 2:
        assert [str(v) for v in validate_spec(spec)][:1] == [message]
        with pytest.raises(InvalidSpecError) as ei:
            build_extension(spec)
        assert str(ei.value) == message


def test_an_anchor_index_out_of_range_is_named(t4):
    for s_edge in (-1, t4.num_edges):
        with pytest.raises(InvalidSpecError, match="out of range"):
            build_extension(ConstructionSpec(t4, s_edge, (0, 0, 0, 0)), check=False)
