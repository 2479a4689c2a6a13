"""The derived hypergraphs built without re-canonicalization, against
reference builds that hand raw edges to the public constructor, which
sorts, looks up and partiteness-checks every vertex again."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ryser.construct import (
    TAIL_LABEL_PREFIX,
    ConstructionSpec,
    DegreeProfile,
    build_extension,
    extract_pair_subhypergraph,
    select_f_by_profile,
    select_f_default,
    uniformize,
)
from ryser.errors import (
    BadEdgeSizeError,
    InvalidProfileError,
    InvalidSpecError,
    LineNotFoundError,
    MissingLabelsError,
    UniformityError,
)
from ryser.gf import FiniteField
from ryser.hypergraph import PartiteHypergraph
from ryser.plane import build_plane, truncate

ORDERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1)}


@lru_cache(maxsize=None)
def plane(q):
    return build_plane(FiniteField(*ORDERS[q]))


@lru_cache(maxsize=None)
def truncation(q, v):
    return truncate(plane(q), v)


# --- reference builds: raw edges through the public constructor ---


def ref_truncate(pg, v):
    pencil = pg.lines_through(v)
    sides, place = [], {}
    for side, li in enumerate(pencil):
        labels = []
        for p in pg.line_points[li]:
            if p != v:
                place[p] = (side, len(labels))
                labels.append(pg.point_label(p))
        sides.append(labels)
    edges = [[place[p] for p in reversed(pts)]
             for li, pts in enumerate(pg.line_points) if li not in pencil]
    return PartiteHypergraph(sides, edges, name=f"T{pg.q + 1}")


def ref_extension(spec):
    base, r = spec.base, spec.base.num_sides
    anchor = sorted(base.edges[spec.s_edge])
    edges, labels = [], []
    for idx, e in enumerate(base.edges):
        if idx == spec.s_edge:
            continue
        met = {s for s, p in e if (s, p) in anchor}
        if len(met) != 1:
            raise InvalidSpecError(f"anchor edge meets edge {idx} in {len(met)} vertices")
        (si,) = met
        edges.append([(r, si), *e])
        labels.append(f"E1({idx})")
    seen = {}
    for i in range(r):
        f = frozenset(base.edges[spec.f_edges[i]])
        if f in seen:
            labels[seen[f]] = labels[seen[f]][:-1] + f",{i + 1})"
        else:
            seen[f] = len(edges)
            edges.append(list(f))
            labels.append(f"E2({i + 1})")
    for i in range(r):
        f = set(base.edges[spec.f_edges[i]]) - {anchor[i]}
        edges.append([(r, i), *f])
        labels.append(f"E3({i + 1})")
    sides = [*base.sides, [f"v{i + 1}" for i in range(r)]]
    return PartiteHypergraph(sides, edges, labels,
                             name=f"{base.name}-ext" if base.name else "ext")


def ref_uniformize(h):
    k = h.num_sides
    sizes = {len(e) for e in h.edges}
    if not sizes <= {k - 1, k}:
        raise BadEdgeSizeError(f"edge sizes {sorted(sizes)}")
    if sizes <= {k}:
        return h
    sides = [list(s) for s in h.sides]
    edges, counter = [], 1
    for e in h.edges:
        if len(e) < k:
            (missed,) = set(range(k)) - {s for s, _ in e}
            while f"{TAIL_LABEL_PREFIX}{counter}" in sides[missed]:
                counter += 1
            sides[missed].append(f"{TAIL_LABEL_PREFIX}{counter}")
            counter += 1
            e = [(missed, len(sides[missed]) - 1), *e]
        edges.append(e)
    return PartiteHypergraph(sides, edges, h.edge_labels,
                             name=f"{h.name}-u" if h.name else "uniformized")


def ref_pairs(h):
    if None in h.edge_labels:
        raise MissingLabelsError("every edge needs a provenance label")
    keep = [i for i, lab in enumerate(h.edge_labels) if lab[:3] in ("E2(", "E3(")]
    return PartiteHypergraph(h.sides, [h.edges[i] for i in keep],
                             [h.edge_labels[i] for i in keep],
                             name=f"{h.name}-pairs" if h.name else "pairs")


def edges_through(base, a, s_edge):
    return [i for i, e in enumerate(base.edges) if a in e and i != s_edge]


def ref_default(base, s_edge):
    anchor = sorted(base.edges[s_edge])
    f = []
    for i in range(base.num_sides):
        hits = edges_through(base, anchor[i], s_edge)
        if not hits:
            raise LineNotFoundError(f"no edge other than the anchor through {anchor[i]}")
        f.append(hits[0])
    return ConstructionSpec(base, s_edge, tuple(f))


def ref_profile(base, s_edge, profile, strict):
    r = base.num_sides
    if (base.uniformity != r or profile.r != r or profile.structural_errors()
            or strict and profile.counting_errors()):
        raise InvalidProfileError("base or profile")
    anchor = sorted(base.edges[s_edge])
    connectors = [(0, p) for p in range(len(base.sides[0])) if (0, p) != anchor[0]]
    if profile.t + 1 > len(connectors):
        raise InvalidProfileError("too few connectors")
    first = edges_through(base, anchor[0], s_edge)
    if not first:
        raise LineNotFoundError("no edge other than the anchor passes through s_1")
    f = [first[0]]
    for w, size in zip(connectors, [*profile.x, profile.x_last]):
        for _ in range(size):
            hits = [i for i, e in enumerate(base.edges) if anchor[len(f)] in e and w in e]
            if len(hits) != 1:
                raise LineNotFoundError(f"found {len(hits)}")
            f.append(hits[0])
    return ConstructionSpec(base, s_edge, tuple(f))


def outcome(fn, *args, **kwargs):
    """(sides, edges, labels, name) of fn's hypergraph or spec, or the
    type of the exception it raised."""
    try:
        out = fn(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - the type is the result
        return type(e)
    if isinstance(out, ConstructionSpec):
        return out.s_edge, out.f_edges
    return out.sides, out.edges, out.edge_labels, out.name


def same(fast, ref, *args, **kwargs):
    got, want = outcome(fast, *args, **kwargs), outcome(ref, *args, **kwargs)
    assert got == want
    return got


@st.composite
def spec_choices(draw):
    q = draw(st.sampled_from(sorted(ORDERS)))
    n = q * q + q + 1
    v = draw(st.integers(0, n - 1))
    base = truncation(q, v)
    s_edge = draw(st.integers(0, base.num_edges - 1))
    # a profile needs t+1 <= r-2 blocks: none exists for q = 2
    kind = draw(st.sampled_from(["default", "random"] + ["profile"] * (q > 2)))
    if kind == "random":
        f = draw(st.lists(st.integers(0, base.num_edges - 1),
                          min_size=q + 1, max_size=q + 1))
        return q, v, s_edge, kind, tuple(f)
    if kind == "profile":
        # structurally valid: t+1 <= min(r-2, q-1) blocks, each at least 1
        r = q + 1
        t = draw(st.integers(1, max(1, min(r - 3, q - 2))))
        x = tuple(draw(st.integers(1, max(1, (r - 1) // (t + 1)))) for _ in range(t))
        return q, v, s_edge, kind, DegreeProfile(r, x)
    return q, v, s_edge, kind, None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec_choices())
def test_derived_hypergraphs_equal_their_constructor_builds(choice):
    q, v, s_edge, kind, value = choice
    same(truncate, ref_truncate, plane(q), v)
    base = truncation(q, v)
    same(extract_pair_subhypergraph, ref_pairs, base)        # no labels: both raise
    if kind == "random":
        spec = ConstructionSpec(base, s_edge, value)
    elif kind == "profile":
        if isinstance(same(select_f_by_profile, ref_profile, base, s_edge, value,
                           strict=False), type):
            return
        spec = select_f_by_profile(base, s_edge, value, strict=False)
    else:
        same(select_f_default, ref_default, base, s_edge)
        spec = select_f_default(base, s_edge)
    assert outcome(build_extension, spec, check=False) == outcome(ref_extension, spec)
    h = build_extension(spec, check=False)
    same(uniformize, ref_uniformize, h)
    same(extract_pair_subhypergraph, ref_pairs, h)
    same(uniformize, ref_uniformize, base)                   # uniform: returned as is


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4, 5]), st.data())
def test_unchecked_specs_on_a_base_that_breaks_the_anchor_law(q, data):
    """On a uniformized extension the anchor meets some edges in 0 or 2+
    vertices; both builds then raise InvalidSpecError."""
    t = truncation(q, 0)
    base = uniformize(build_extension(select_f_default(t, 0), check=False))
    s_edge = data.draw(st.integers(0, base.num_edges - 1))
    f = data.draw(st.lists(st.integers(0, base.num_edges - 1),
                           min_size=base.num_sides, max_size=base.num_sides))
    spec = ConstructionSpec(base, s_edge, tuple(f))
    assert outcome(build_extension, spec, check=False) == outcome(ref_extension, spec)


@st.composite
def partite_bases(draw):
    """Random partite hypergraphs of edge sizes a and a+1: most break
    some construction hypothesis, so the builders' errors get compared."""
    k = draw(st.integers(2, 4))
    side_sizes = [draw(st.integers(1, 3)) for _ in range(k)]
    a = draw(st.integers(1, k))
    edges = {}
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.sampled_from(sorted({a, min(a + 1, k)})))
        sides = draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size,
                              unique=True))
        edges[tuple(sorted((s, draw(st.integers(0, side_sizes[s] - 1))) for s in sides))] = None
    labels = [[f"{s}:{p}" for p in range(n)] for s, n in enumerate(side_sizes)]
    return PartiteHypergraph(labels, list(edges))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(partite_bases(), st.data())
def test_selectors_and_builders_fail_alike_on_random_bases(base, data):
    m, k = base.num_edges, base.num_sides
    s_edge = data.draw(st.integers(0, m - 1))
    same(select_f_default, ref_default, base, s_edge)
    x = tuple(data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)))
    same(select_f_by_profile, ref_profile, base, s_edge, DegreeProfile(k, x), strict=False)
    f = data.draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))
    spec = ConstructionSpec(base, s_edge, tuple(f))
    got = outcome(build_extension, spec, check=False)
    assert got == outcome(ref_extension, spec)
    if not isinstance(got, type):
        h = build_extension(spec, check=False)
        same(uniformize, ref_uniformize, h)
        same(extract_pair_subhypergraph, ref_pairs, h)


def test_a_base_of_sizes_two_and_three_breaks_the_size_profile_alike():
    # every edge meets the anchor once, so only the sizes 2, 3 and 4 of
    # the extension's edges are wrong
    base = PartiteHypergraph([["a", "b"]] * 3, [[(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 1)],
                                                [(1, 0), (2, 1), (0, 1)]])
    spec = ConstructionSpec(base, 0, (1, 2, 2))
    assert outcome(build_extension, spec, check=False) is UniformityError
    assert outcome(ref_extension, spec) is UniformityError


@pytest.mark.parametrize("q", sorted(ORDERS))
def test_every_truncation_point_equals_its_constructor_build(q):
    pg = plane(q)
    for v in range(len(pg.points)):
        same(truncate, ref_truncate, pg, v)
