"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from ryser.analysis import (
    classify_extensions,
    degree_fingerprint,
    minimize,
)
from ryser.cli import build_truncation, corpus_generate
from ryser.construct import (
    DegreeProfile,
    build_extension,
    extract_pair_subhypergraph,
    profile_count,
    select_f_by_profile,
    select_f_default,
    uniformize,
    validate_spec,
)
from ryser.gf import FiniteField
from ryser.hypergraph import (
    degree_stats,
    dumps_rhg,
    is_intersecting,
    loads_rhg,
    read_rhg,
)
from ryser.plane import bruck_ryser_excluded, build_plane
from ryser.solver import (
    cover_number,
    matching_number,
    verify_ryser_ratio,
)

from oracles import (
    brute_force_cover_oracle,
    cover_mirror,
    enumerate_candidates_brute,
    intersection_size_profile,
)

PLANE_ORDERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


@contextmanager
def criterion(number, name, budget_s=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - t0
    print(f"[criterion {number:2d}] {name}: PASS ({elapsed:.2f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"


@pytest.fixture(scope="module")
def truncations():
    return {q: build_truncation(q) for q in (2, 3, 4, 5)}


@pytest.fixture(scope="module")
def setups(truncations):
    """Per q in {3,4,5}: default-F and profile-F specs with their mixed
    and uniformized extensions."""
    out = {}
    for q in (3, 4, 5):
        t = truncations[q]
        r = q + 1
        for mode in ("default", "profile"):
            if mode == "default":
                spec = select_f_default(t, 0)
            else:
                spec = select_f_by_profile(t, 0, DegreeProfile(r, (1,)), strict=False)
            h = build_extension(spec, check=False)
            out[q, mode] = (spec, h, uniformize(h))
    return out


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    files = corpus_generate(d)
    return d, files


def side_set(h, s):
    return frozenset((s, p) for p in range(len(h.sides[s])))


def test_criterion_01_plane_axioms():
    with criterion(1, "plane axioms for q in {2,3,4,5,7,8,9}", budget_s=5):
        for q, (p, k) in PLANE_ORDERS.items():
            pp = build_plane(FiniteField(p, k))
            n = q * q + q + 1
            assert len(pp.points) == n and len(pp.lines) == n
            assert all(len(pts) == q + 1 for pts in pp.line_points)
            point_masks = [0] * n
            for li, pts in enumerate(pp.line_points):
                for pt in pts:
                    point_masks[pt] |= 1 << li
            for i in range(n):
                for j in range(i + 1, n):
                    assert len(set(pp.line_points[i]).intersection(pp.line_points[j])) == 1
                    assert (point_masks[i] & point_masks[j]).bit_count() == 1


def test_criterion_02_truncated_plane_properties(truncations):
    with criterion(2, "truncated plane properties for q in {2,3,4,5}", budget_s=10):
        for q, t in truncations.items():
            r = q + 1
            assert t.num_sides == r
            assert t.side_sizes == (q,) * r
            assert t.num_edges == q * q
            assert t.uniformity == r
            ok, _ = is_intersecting(t)
            assert ok
            res = cover_number(t, upper_hint=q)
            assert res.tau == q
            assert all(set(e) & set(res.witness) for e in t.edges)
            if q in (2, 3):
                assert brute_force_cover_oracle(t) == q


def test_criterion_03_reduced_base_covers_are_sides(truncations):
    with criterion(3, "only minimum covers of the reduced base are the sides", budget_s=60):
        for q in (3, 4, 5):
            t = truncations[q]
            r = q + 1
            reduced = t.without_edge(0)
            res = cover_number(reduced, enumerate_all=True, upper_hint=r - 1)
            assert res.tau == r - 1
            got = {frozenset(c) for c in res.all_min_covers}
            assert got == {side_set(t, s) for s in range(r)}


def test_criterion_04_extension_is_extremal(setups):
    with criterion(4, "extension intersecting with cover number r; uniformized extremal",
                   budget_s=120):
        for (q, mode), (spec, h, u) in setups.items():
            r = q + 1
            assert validate_spec(spec) == []
            ok, _ = is_intersecting(h)
            assert ok
            assert cover_number(h, upper_hint=r).tau == r
            assert u.num_sides == r + 1
            assert u.uniformity == r + 1
            ok, _ = is_intersecting(u)
            assert ok
            rep = verify_ryser_ratio(u)
            assert rep.tau == r and rep.nu == 1 and rep.is_ryser_extremal


def test_criterion_05_cover_mirroring(setups, truncations):
    with criterion(5, "every small cover of the extension mirrors to the reduced base",
                   budget_s=30):
        spec, h, _ = setups[3, "default"]
        reduced = truncations[3].without_edge(spec.s_edge)
        masks = h.edge_masks
        gid = h.gid
        verts = list(h.vertices())
        found = 0
        for size in range(1, 5):
            for sub in combinations(verts, size):
                m = 0
                for v in sub:
                    m |= 1 << gid(v)
                if all(e & m for e in masks):
                    found += 1
                    mirrored = cover_mirror(sub, spec)
                    assert all(set(e) & mirrored for e in reduced.edges)
        assert found > 0


def test_criterion_06_intersection_size_law(setups):
    with criterion(6, "pairwise intersection sizes in {1,2,r-1,r} with r tagged pairs"):
        for q in (4, 5):
            spec, h, _ = setups[q, "default"]
            r = q + 1
            assert len(set(spec.f_edges)) == r  # distinct selected edges
            prof = intersection_size_profile(h)
            assert set(prof) <= {1, 2, r - 1, r}
            assert prof[r - 1] == r
            masks = h.edge_masks
            labels = h.edge_labels
            for i in range(len(masks)):
                for j in range(i + 1, len(masks)):
                    if (masks[i] & masks[j]).bit_count() == r - 1:
                        kinds = {labels[i][:2], labels[j][:2]}
                        assert kinds == {"E2", "E3"}
                        assert labels[i][2:] == labels[j][2:]  # same (i)


def test_criterion_07_minimality(setups):
    with criterion(7, "minimization keeps all pair edges and certifies criticality",
                   budget_s=300):
        for q in (3, 4):
            _, h, u = setups[q, "default"]
            r = q + 1
            trace = minimize(u)
            assert trace.target_tau == r
            final_labels = set(trace.final.edge_labels)
            for lab in u.edge_labels:
                if lab.startswith(("E2(", "E3(")):
                    assert lab in final_labels
            assert len(trace.kept) == trace.final.num_edges
            for kept in trace.kept:
                assert kept.cert.tau == r - 1
            for d in trace.deleted:
                assert d.cert.tau == r
            assert cover_number(trace.final, upper_hint=r).tau == r


def test_criterion_08_degree_profiles_r26():
    with criterion(8, "r=26 degree profiles, fingerprints, and profile count", budget_s=30):
        t26 = build_truncation(25)
        pairs = {}
        for x1 in (4, 5):
            spec = select_f_by_profile(t26, 0, DegreeProfile(26, (x1,)), strict=True)
            h = build_extension(spec)
            s = extract_pair_subhypergraph(h)
            pairs[x1] = s
            st = degree_stats(s)
            assert st.nonzero(0) == (1, 2 * x1, 2 * (25 - x1))
            assert max(max(st.side_degrees[i]) for i in range(1, 27)) <= 6
        assert degree_stats(pairs[4]).nonzero(0) == (1, 8, 42)
        assert degree_stats(pairs[5]).nonzero(0) == (1, 10, 40)
        assert degree_fingerprint(pairs[4]) != degree_fingerprint(pairs[5])
        assert profile_count(26, t=1).count == 2


def test_criterion_09_addable_edge_classification(setups):
    with criterion(9, "q=4: every addable edge is a twin (type 1 or type 2)", budget_s=60):
        spec, h, _ = setups[4, "default"]
        cls = classify_extensions(h, spec)
        assert cls.pattern_guaranteed
        assert cls.violations == ()
        assert {(c.fresh_side, c.vertices) for c in cls.candidates} == \
            set(enumerate_candidates_brute(h))


def test_criterion_10_solver_oracle_equivalence(corpus):
    with criterion(10, "solver agrees with the brute-force oracle on the corpus"):
        d, files = corpus
        for name in files:
            h = read_rhg(d / name)
            ok, _ = is_intersecting(h)
            nu = matching_number(h).nu
            assert ok == (nu == 1)
            assert ok  # every corpus instance is intersecting
            tau = cover_number(h, timeout=120).tau
            if h.num_vertices <= 24:
                assert tau == brute_force_cover_oracle(h)
            if h.uniformity is not None:
                assert tau <= h.uniformity * nu


def test_criterion_11_bruck_ryser():
    with criterion(11, "Bruck-Ryser exclusion values"):
        assert bruck_ryser_excluded(6) is True
        assert bruck_ryser_excluded(10) is False
        assert bruck_ryser_excluded(14) is True
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            assert bruck_ryser_excluded(q) is False


def test_criterion_12_determinism_and_round_trip(corpus, tmp_path, truncations):
    with criterion(12, "byte-identical corpus, file round-trips, worker-count independence"):
        d, files = corpus
        d2 = tmp_path / "again"
        files2 = corpus_generate(d2)
        assert files == files2
        for name in files:
            assert (d / name).read_bytes() == (d2 / name).read_bytes()
            exp1 = (d / (name + ".expected.json")).read_bytes()
            exp2 = (d2 / (name + ".expected.json")).read_bytes()
            assert exp1 == exp2
        for name in files:
            text = (d / name).read_text()
            h = read_rhg(d / name)
            assert dumps_rhg(h) == text
            assert loads_rhg(dumps_rhg(h)) == h
        reduced = truncations[3].without_edge(0)
        single = cover_number(reduced, enumerate_all=True)
        multi = cover_number(reduced, enumerate_all=True, jobs=2)
        assert (single.tau, single.witness, single.all_min_covers) == \
            (multi.tau, multi.witness, multi.all_min_covers)
        # minimize's trials, one read of the file each
        u5 = d / "ext_q4_default_uniform.rhg"
        a = minimize(read_rhg(u5))
        b = minimize(read_rhg(u5))
        assert (a.initial, a.final, a.deleted, a.kept) == (b.initial, b.final, b.deleted, b.kept)
