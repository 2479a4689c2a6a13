"""Minimization traces, fingerprints, isomorphism, extension classes."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ryser import analysis
from ryser.analysis import (
    ExtensionClassification,
    classify_extensions,
    degree_fingerprint,
    exact_isomorphic,
    fingerprint_str,
    maximal_closure_description,
    minimize,
)
from ryser.construct import (
    ConstructionSpec,
    DegreeProfile,
    build_extension,
    select_f_by_profile,
    select_f_default,
    uniformize,
)
from ryser.errors import (
    NotExtremalError,
    SolverTimeout,
    TooLargeError,
    ViolationsPresentError,
)
from ryser.gf import FiniteField
from ryser.hypergraph import PartiteHypergraph
from ryser.plane import build_plane, truncate
from ryser.solver import cover_number

from oracles import enumerate_candidates_brute


def make_t(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    n = q
    while n > 1:
        n //= p
        k += 1
    return truncate(build_plane(FiniteField(p, k)))


def default_spec(base, s_edge=0):
    anchor = tuple(sorted(base.edges[s_edge]))
    f = tuple(
        next(e for e, es in enumerate(map(frozenset, base.edges))
             if anchor[i] in es and e != s_edge)
        for i in range(base.num_sides)
    )
    return ConstructionSpec(base, s_edge, f)


@pytest.fixture(scope="module")
def q3_setup():
    t4 = make_t(3)
    spec = default_spec(t4)
    h = build_extension(spec)
    return t4, spec, h


def test_minimize_q3(q3_setup):
    _, _, h = q3_setup
    u = uniformize(h)
    trace = minimize(u)
    assert trace.target_tau == 4
    assert cover_number(trace.final).tau == 4
    # every pair edge (selected + mirrored, now tailed) must survive
    final_labels = set(trace.final.edge_labels)
    for lab in u.edge_labels:
        if lab.startswith(("E2(", "E3(")):
            assert lab in final_labels
    # criticality certificates: deleting any edge drops tau to 3
    assert len(trace.kept) == trace.final.num_edges
    for kept in trace.kept:
        assert kept.cert.tau == 3
    for d in trace.deleted:
        assert d.cert.tau == 4
    # deleted + kept account for all original edges
    assert len(trace.deleted) + len(trace.kept) == u.num_edges


def restart_minimize(h, order):
    """Reference reduction: delete the first deletable edge in scan
    order, then rescan from the start, until no edge is deletable.
    Returns the final hypergraph and (original index, certificate) per
    deletion."""
    target = h.num_sides - 1
    cur, orig, deleted = h, list(range(h.num_edges)), []
    while True:
        scan = range(cur.num_edges) if order == "asc" else range(cur.num_edges - 1, -1, -1)
        for pos in scan:
            res = cover_number(cur.without_edge(pos), upper_hint=target)
            if res.tau == target:
                deleted.append((orig[pos], res))
                cur = cur.without_edge(pos)
                del orig[pos]
                break
        else:
            return cur, deleted


@pytest.mark.parametrize("order", ["asc", "desc"])
@pytest.mark.parametrize("f_mode", ["default", "profile"])
@pytest.mark.parametrize("q", [3, 4])
def test_minimize_single_pass_matches_restart_loop(q, f_mode, order, monkeypatch):
    t = make_t(q)
    if f_mode == "default":
        spec = select_f_default(t, 0)
    else:
        spec = select_f_by_profile(t, 0, DegreeProfile(q + 1, (1,)), strict=False)
    u = uniformize(build_extension(spec))
    calls = []

    def counting_cover_number(*args, **kwargs):
        calls.append(args[0])
        return cover_number(*args, **kwargs)

    monkeypatch.setattr(analysis, "cover_number", counting_cover_number)
    trace = minimize(u, order=order)
    # one cover_number call, for the input; each edge is then one decide run
    assert calls == [u]

    target = trace.target_tau
    final, deleted = restart_minimize(u, order)
    assert trace.final == final
    assert [(d.original_index, d.cert.tau) for d in trace.deleted] == [
        (i, res.tau) for i, res in deleted
    ]
    left = u
    for d in trace.deleted:
        # the input's minimum cover certifies the cover number left
        left = left.without_edge(left.edges.index(d.vertices))
        witness = set(d.cert.witness)
        assert d.cert.tau == len(witness) == target
        assert all(witness & set(e) for e in left.edges)
    assert left == final
    assert [k.final_index for k in trace.kept] == list(range(final.num_edges))
    for k in trace.kept:
        assert u.edges[k.original_index] == k.vertices == final.edges[k.final_index]
        witness = set(k.cert.witness)
        assert k.cert.tau == len(witness) == target - 1
        assert not witness & set(k.vertices)
        rest = final.without_edge(k.final_index)
        assert all(witness & set(e) for e in rest.edges)
        assert cover_number(rest).tau == target - 1


@lru_cache(maxsize=None)
def plane(q):
    return build_plane(FiniteField(*{3: (3, 1), 4: (2, 2)}[q]))


@st.composite
def shuffled_extensions(draw):
    """A uniformized extension of a truncation of PG(2, q), q in {3, 4},
    at a random point and anchor, default or profile F, with its edges
    in a random order."""
    q = draw(st.sampled_from([3, 4]))
    t = truncate(plane(q), draw(st.integers(0, q * q + q)))
    anchor = draw(st.integers(0, q * q - 1))
    if draw(st.booleans()):
        spec = select_f_default(t, anchor)
    else:
        spec = select_f_by_profile(t, anchor, DegreeProfile(q + 1, (1,)), strict=False)
    u = uniformize(build_extension(spec))
    perm = draw(st.permutations(range(u.num_edges)))
    return PartiteHypergraph(u.sides, [u.edges[i] for i in perm],
                             [u.edge_labels[i] for i in perm], name=u.name)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(shuffled_extensions())
def test_minimize_matches_restart_loop_on_random_extensions(u):
    traces = {order: minimize(u, order=order) for order in ("asc", "desc")}
    for order, trace in traces.items():
        final, deleted = restart_minimize(u, order)
        assert trace.final == final
        assert [d.original_index for d in trace.deleted] == [i for i, _ in deleted]
    # an equal copy gives the same trace, kept witnesses and node counts included
    copy = PartiteHypergraph(u.sides, u.edges, u.edge_labels, name=u.name)
    assert minimize(copy) == traces["asc"]


def test_minimize_rejects_non_extremal():
    h = PartiteHypergraph(
        [["a"], ["b"], ["c"], ["d"]],
        [[(0, 0), (1, 0), (2, 0), (3, 0)]],
    )
    with pytest.raises(NotExtremalError):
        minimize(h)


def test_fingerprints(q3_setup):
    t4, _, _ = q3_setup
    assert degree_fingerprint(t4) == (3,) * 12
    assert fingerprint_str(degree_fingerprint(t4)) == "3^12"
    assert fingerprint_str(()) == "(empty)"


def shuffle_hypergraph(h, seed):
    """Relabel: permute sides and positions within sides."""
    rng = random.Random(seed)
    side_perm = list(range(h.num_sides))
    rng.shuffle(side_perm)  # old side s -> new side side_perm[s]
    pos_perms = []
    for s in range(h.num_sides):
        pp = list(range(len(h.sides[s])))
        rng.shuffle(pp)
        pos_perms.append(pp)
    new_sides = [None] * h.num_sides
    for s in range(h.num_sides):
        labels = [None] * len(h.sides[s])
        for p, lab in enumerate(h.sides[s]):
            labels[pos_perms[s][p]] = lab
        new_sides[side_perm[s]] = labels
    new_edges = [
        tuple(sorted((side_perm[s], pos_perms[s][p]) for s, p in e))
        for e in h.edges
    ]
    rng.shuffle(new_edges)
    return PartiteHypergraph(new_sides, new_edges, name=h.name + "-shuffled")


def test_exact_isomorphic_identity_and_relabel(q3_setup):
    t4, _, _ = q3_setup
    res = exact_isomorphic(t4, t4)
    assert res.isomorphic
    assert res.side_perm == (0, 1, 2, 3)
    shuffled = shuffle_hypergraph(t4, 7)
    res2 = exact_isomorphic(t4, shuffled)
    assert res2.isomorphic
    # witness mapping really maps edges onto edges
    m = dict(res2.vertex_map)
    mapped = {frozenset(m[v] for v in e) for e in t4.edges}
    assert mapped == set(map(frozenset, shuffled.edges))
    assert degree_fingerprint(t4) == degree_fingerprint(shuffled)


def test_exact_isomorphic_negative_and_guard():
    t3 = make_t(2)
    t4 = make_t(3)
    assert not exact_isomorphic(t3, t4).isomorphic
    # same shape, different structure: rewire one edge of t3
    edges = list(t3.edges)
    e = list(edges[0])
    alt = (e[0][0], 1 - e[0][1])
    candidate = tuple(sorted([alt] + e[1:]))
    if candidate not in set(edges):
        edges[0] = candidate
        other = PartiteHypergraph(t3.sides, edges)
        res = exact_isomorphic(t3, other)
        if degree_fingerprint(t3) != degree_fingerprint(other):
            assert not res.isomorphic
    big = uniformize(build_extension(default_spec(make_t(4))))
    with pytest.raises(TooLargeError):
        exact_isomorphic(big, big)


def test_classify_extensions_q3_reports_facts(q3_setup):
    _, spec, h = q3_setup
    with pytest.warns(UserWarning, match="r=4 < 5"):
        cls = classify_extensions(h, spec)
    assert cls.r == 4
    assert not cls.pattern_guaranteed
    assert cls.counts.get("already_present", 0) == 8  # the lifted edges
    brute = set(enumerate_candidates_brute(h))
    assert {(c.fresh_side, c.vertices) for c in cls.candidates} == brute
    # every selected edge shows up as a type-1 twin with a fresh final-side vertex
    type1 = {(c.index, c.fresh_side) for c in cls.candidates if c.kind == "type1"}
    assert {(i, 4) for i in range(1, 5)} <= type1


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("mode", ["default", "profile"])
def test_classification_counts(q, mode):
    # Every addable edge of the q=5 and q=7 extensions is a twin: the q^2-1
    # edges already there, (q+1)^2 of type 1 and q(q+1) of type 2.
    t = make_t(q)
    spec = (select_f_default(t, 0) if mode == "default"
            else select_f_by_profile(t, 0, DegreeProfile(q + 1, (1,)), strict=False))
    cls = classify_extensions(build_extension(spec, check=False), spec)
    assert cls.pattern_guaranteed and cls.violations == ()
    assert cls.counts == {"already_present": q * q - 1, "type1": (q + 1) ** 2,
                          "type2": q * (q + 1)}


def test_classification_honours_its_timeout(clock_jumps_after_cover_check):
    t = make_t(5)
    spec = select_f_default(t, 0)
    h = build_extension(spec, check=False)
    with pytest.raises(SolverTimeout):
        classify_extensions(h, spec, timeout=60)


def test_minimize_honours_its_timeout(q3_setup, clock_jumps_after_cover_check):
    # every trial shares the budget of the call, so none starts past it
    _, _, h = q3_setup
    with pytest.raises(SolverTimeout):
        minimize(uniformize(h), timeout=60)


def test_minimize_order_variants(q3_setup):
    _, _, h = q3_setup
    u = uniformize(h)
    asc = minimize(u)
    desc = minimize(u, order="desc")
    # both reach minimal hypergraphs with the right cover number
    for trace in (asc, desc):
        assert cover_number(trace.final).tau == 4
        assert all(k.cert.tau == 3 for k in trace.kept)
    with pytest.raises(ValueError):
        minimize(u, order="sideways")


@pytest.mark.filterwarnings("ignore:uniformity r=4")
def test_classify_rejects_wrong_tau(q3_setup):
    t4, spec, _ = q3_setup
    wrong = PartiteHypergraph(
        t4.sides + (("v1", "v2", "v3", "v4"),),
        [t4.edges[0] + ((4, 0),)],
        ["E1(0)"],
    )
    with pytest.raises(NotExtremalError):
        classify_extensions(wrong, spec)


def test_maximal_closure_q4():
    t5 = make_t(4)
    spec = default_spec(t5)
    h = build_extension(spec)
    cls = classify_extensions(h, spec)
    assert cls.pattern_guaranteed
    assert cls.violations == ()
    report = maximal_closure_description(spec, cls)
    assert report.r == 5
    assert len(report.families) == 10
    # family membership: F_2 + fresh final-side vertex is the type1(2) family
    f2 = tuple(sorted(spec.base.edges[spec.f_edges[1]]))
    fam = next(f for f in report.families if f.kind == "type1" and f.index == 2)
    assert (fam.fresh_side, fam.fixed_vertices) == (5, f2)


def test_maximal_closure_rejects_violations(q3_setup):
    _, spec, h = q3_setup
    with pytest.warns(UserWarning):
        cls = classify_extensions(h, spec)
    if cls.violations:
        with pytest.raises(ViolationsPresentError):
            maximal_closure_description(spec, cls)
    else:
        fake = ExtensionClassification(
            r=4, pattern_guaranteed=False,
            candidates=cls.candidates, counts=cls.counts,
            violations=(cls.candidates[0],),
        )
        with pytest.raises(ViolationsPresentError):
            maximal_closure_description(spec, fake)
