"""Minimization traces, fingerprints, isomorphism, extension classes."""

import os
import tempfile
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
from ryser.hypergraph import PartiteHypergraph, write_rhg
from ryser.plane import build_plane, truncate
from ryser.report import (Check, input_entry, make_report, minimization_certificate,
                          recheck_report)
from ryser.solver import cover_number

from oracles import enumerate_candidates_brute, reference_minimize, shuffle_hypergraph


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
    return build_plane(FiniteField(*{3: (3, 1), 4: (2, 2), 5: (5, 1)}[q]))


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


@st.composite
def linked_extensions(draw):
    """A uniformized extension of a truncation of PG(2, q), q in
    {3, 4, 5}, at a random point and anchor, default or profile F,
    linked to its spec, or an unlinked copy with its edges in a random
    order; and a scan order."""
    q = draw(st.sampled_from([3, 4, 5]))
    t = truncate(plane(q), draw(st.integers(0, q * q + q)))
    anchor = draw(st.integers(0, q * q - 1))
    if draw(st.booleans()):
        spec = select_f_default(t, anchor)
    else:
        spec = select_f_by_profile(t, anchor, DegreeProfile(q + 1, (1,)), strict=False)
    u = uniformize(build_extension(spec, check=False))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(u.num_edges)))
        u = PartiteHypergraph(u.sides, [u.edges[i] for i in perm],
                              [u.edge_labels[i] for i in perm], name=u.name)
    return u, draw(st.sampled_from(["asc", "desc"]))


def searched_trials(monkeypatch):
    """The (alive mask, edge) of every `cover_without_edge` run that
    `minimize` makes while the spy is installed."""
    calls = []
    run = analysis.cover_without_edge

    def spy(h, alive, edge, *args):
        calls.append((alive, edge))
        return run(h, alive, edge, *args)

    monkeypatch.setattr(analysis, "cover_without_edge", spy)
    return calls


@settings(max_examples=40, deadline=None, derandomize=True)
@given(linked_extensions())
def test_minimize_pool_matches_the_pool_free_reference(case):
    # The pool of known near-covers changes no decision: the deletions
    # and the final hypergraph are those of a scan that searches every
    # edge, each kept witness replays clean, and each edge the pool
    # answers has a witness that misses it and covers every other edge
    # alive at its turn.
    u, order = case
    with pytest.MonkeyPatch.context() as mp:
        calls = searched_trials(mp)
        trace = minimize(u, order=order)
    deleted, final = reference_minimize(u, order)
    assert [d.original_index for d in trace.deleted] == deleted
    assert trace.final == final

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.rhg")
        write_rhg(u, path)
        with Check("minimality-reduction") as c:
            c.ok(True, minimization_certificate(trace))
        assert recheck_report(make_report("minimize", {}, [input_entry(path)], [c])) == []

    scan = range(u.num_edges) if order == "asc" else range(u.num_edges - 1, -1, -1)
    gone = {d.original_index for d in trace.deleted}
    kept = {k.original_index: k for k in trace.kept}
    alive = (1 << u.num_edges) - 1
    searched = []
    for i in scan:
        if i in kept and kept[i].cert.nodes_explored == 0:
            witness = sum(1 << u.gid(v) for v in kept[i].cert.witness)
            missed = [j for j, e in enumerate(u.edge_masks) if alive >> j & 1 and not e & witness]
            assert missed == [i]
        else:
            searched.append((alive, i))
        if i in gone:
            alive &= ~(1 << i)
    assert calls == searched
    if (u._source or u)._spec is not None:
        assert len(searched) < u.num_edges


@pytest.mark.parametrize("q, mode, searched", [
    (4, "default", 8), (4, "profile", 9), (7, "default", 36),
])
def test_the_pool_leaves_these_trials_to_search(q, mode, searched, monkeypatch):
    # The trials minimize searches at anchor 0, out of one per edge, as
    # measured when the pool was added: the rest are answered from the
    # mirror sets and from the near misses of refuted trials.
    t = make_t(q)
    spec = (select_f_default(t, 0) if mode == "default"
            else select_f_by_profile(t, 0, DegreeProfile(q + 1, (1,)), strict=False))
    u = uniformize(build_extension(spec, check=False))
    calls = searched_trials(monkeypatch)
    minimize(u)
    assert (len(calls), u.num_edges) == (searched, (q + 1) ** 2)


def missed_edges(h, gids):
    cover = sum(1 << g for g in gids)
    return [j for j, e in enumerate(h.edge_masks) if not e & cover]


def test_mirror_sets_that_miss_one_edge_seed_the_pool():
    # Side j misses E3(j) alone, and side j with s_j swapped for v_j
    # misses E2(j) alone, so a linked extension's seeds are its pair
    # edges; an unlinked copy has none.
    t = make_t(4)
    u = uniformize(build_extension(select_f_default(t, 0), check=False))
    seeds = analysis._mirror_seeds(u)
    assert sorted(u.edge_labels[j] for j in seeds) == sorted(
        lab for lab in u.edge_labels if lab.startswith(("E2(", "E3(")))
    for j, gids in seeds.items():
        assert len(gids) == u.num_sides - 2 and missed_edges(u, gids) == [j]
    assert analysis._mirror_seeds(PartiteHypergraph(u.sides, u.edges, u.edge_labels)) == {}
    # With F_1 = F_2 the anchor edge S (built unchecked; the result is
    # not intersecting), side 1 with s_1 swapped for v_1 misses S and
    # E3(2), side 2's swap misses S and E3(1), and the other swaps miss
    # four edges, so no swap is a seed.
    f = (0, 0) + select_f_default(t, 0).f_edges[2:]
    odd = uniformize(build_extension(ConstructionSpec(t, 0, f), check=False))
    seeds = analysis._mirror_seeds(odd)
    assert sorted(odd.edge_labels[j] for j in seeds) == [f"E3({i})" for i in range(1, 6)]
    for j, gids in seeds.items():
        assert missed_edges(odd, gids) == [j]


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
