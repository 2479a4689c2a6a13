"""The three workloads: their inputs from a seed, and one round of each.

A round carries every instance of the workload through its sequence of
calls into the package.  `Round.call` times each call and counts it as
one operation; the checks that follow it run untimed and mark that
operation failed when the output is wrong.

The package is reached through its module objects at call time
(`solver.cover_number`, not a name bound at import), so that the traced
run's wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import isqrt
from time import perf_counter

from ryser import analysis, cli, construct, gf, hypergraph, plane, solver

import checks

# The search cost of a (truncated point, anchor edge) choice depends on
# the labelling it induces: at q = 7 the final tau call took 1.83 M nodes
# at (0, 0) and 2.67 M / 2.74 M at (5, 10) / (20, 33).  So the two solver
# workloads keep the command line's default point and the seed varies
# only the inputs whose cost does not depend on it.  Rounds are kept to
# a few seconds so that a run holds several of them (see run.py), which
# rules out the 33-38 s PG(2,7) chain and q = 5 in the pipeline.  The
# pipeline runs at one worker: at --jobs 2 each cover call starts a
# process pool, and the round time swung between 2.0 and 3.1 s from one
# run to the next while single-process work stayed within 5%.
DEEP_Q = 5
PIPELINE_ORDERS = (4,)
PIPELINE_MODES = (
    ("default", ("--f-default",)),
    ("profile", ("--profile", "1", "--relaxed-profile")),
)
PIPELINE_JOBS = 1
FAMILY_ORDERS = (16, 17, 19, 23, 25, 27)   # the prime powers from 16 to 27
ISO_ORDERS = (3, 4)          # exact_isomorphic refuses more than 64 vertices in all
ISO_COPIES = 4
REF_EVERY = 0.25             # seconds of calls between samples of the host's speed


class Round:
    """Time and operation counts of one round.

    With `reference`, a function returning the time of a fixed loop, the
    host's speed is sampled before a call whenever REF_EVERY seconds of
    calls have passed since the last sample, and once at the end."""

    def __init__(self, reference=None):
        self.attempted = 0
        self.failed = 0
        self.calls = []        # (seconds, index of the last reference sample before it)
        self.refs = []
        self._reference = reference
        self._since_ref = float("inf")
        self._failed_op = None

    def call(self, fn, *args, **kwargs):
        if self._reference is not None and self._since_ref >= REF_EVERY:
            self.refs.append(self._reference())
            self._since_ref = 0.0
        self.attempted += 1
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        elapsed = perf_counter() - t0
        self._since_ref += elapsed
        self.calls.append((elapsed, len(self.refs) - 1))
        return out

    def finish(self):
        if self._reference is not None:
            self.refs.append(self._reference())

    def local_refs(self):
        """For each call, the mean of the reference samples around it."""
        return [(self.refs[i] + self.refs[i + 1]) / 2 for _, i in self.calls]

    def scaled_calls(self):
        """Each call's time over the reference time around it."""
        return [t / ref for (t, _), ref in zip(self.calls, self.local_refs())]

    def check(self, ok, what):
        """Mark the last call's operation failed unless `ok`."""
        if not ok and self._failed_op != self.attempted:
            self._failed_op = self.attempted
            self.failed += 1
            print(f"check failed (operation {self.attempted}): {what}", file=sys.stderr)


@dataclass(frozen=True)
class Order:
    q: int
    p: int
    k: int
    vertex: int
    anchor: int
    profiles: tuple = ()
    copy_seeds: tuple = ()


def strict_profiles(r):
    """Every strict block-size multiset with t <= 2: t+2 < x_i <= sqrt(r)."""
    out = []
    for t in (1, 2):
        values = range(t + 3, isqrt(r) + 1)
        for x in combinations_with_replacement(values, t):
            prof = construct.DegreeProfile(r, x)
            if prof.x_last >= 1 and t + 1 <= r - 2:
                out.append(prof)
    return tuple(out)


def _order(q, rng, **extra):
    p, k = cli.factor_prime_power(q)
    return Order(q, p, k, rng.randrange(q * q + q + 1), rng.randrange(q * q), **extra)


def make_inputs(workload, seed):
    """Inputs of one workload.  The seed picks, per order of
    profile-family, the truncated point and the anchor edge, and the
    seeds of the relabelled copies."""
    rng = random.Random(seed)
    if workload == "deep-cover-q5":
        return tuple(Order(DEEP_Q, DEEP_Q, 1, 0, a) for a in range(DEEP_Q * DEEP_Q))
    if workload == "pipeline-all-checks":
        return tuple(
            (q, name, ("pipeline", "--q", str(q), *flags, "--all-checks",
                       "--jobs", str(PIPELINE_JOBS)))
            for q in PIPELINE_ORDERS for name, flags in PIPELINE_MODES
        )
    if workload == "profile-family":
        family = tuple(_order(q, rng, profiles=strict_profiles(q + 1)) for q in FAMILY_ORDERS)
        iso = tuple(
            _order(q, rng, copy_seeds=tuple(rng.getrandbits(32) for _ in range(ISO_COPIES)))
            for q in ISO_ORDERS
        )
        return family, iso
    raise ValueError(f"unknown workload {workload!r}")


# --- shared steps ---


def _truncation(run, o):
    field = run.call(gf.FiniteField, o.p, o.k)
    run.check(field.q == o.q, f"GF({o.q}) has order {field.q}")
    pg = run.call(plane.build_plane, field)
    run.check(checks.plane_ok(pg, o.q), f"PG(2,{o.q}) breaks a plane axiom")
    t = run.call(plane.truncate, pg, o.vertex)
    run.check(checks.truncation_ok(t, o.q), f"truncation of PG(2,{o.q}) at {o.vertex}")
    return t


def _check_cover(run, h, res, tau, what):
    run.check(res.tau == tau, f"{what}: tau {res.tau}, expected {tau}")
    run.check(checks.witness_ok(h, res.tau, res.witness), f"{what}: witness is no cover of size tau")


def _check_extension(run, h, base, spec, new_pairs_only=False):
    """Sides, lifted E1 edges, and the intersecting property.  With
    `new_pairs_only` only the pairs with an E2/E3 edge are tested: each
    E1 pair contains a pair of base edges, which the truncation check
    already found intersecting."""
    r = len(base.sides)
    run.check(len(h.sides) == r + 1 and h.sides[:r] == base.sides, "extension sides")
    lifted = [i for i, lab in enumerate(h.edge_labels) if lab.startswith("E1(")]
    run.check(len(lifted) == len(base.edges) - 1, "one E1 edge per base edge but the anchor")
    for i in lifted:
        k = int(h.edge_labels[i][3:-1])
        core = tuple(v for v in h.edges[i] if v[0] != r)
        run.check(k != spec.s_edge and core == base.edges[k] and len(h.edges[i]) == r + 1,
                  f"E1({k}) is base edge {k} plus a mirror vertex")
    new = sorted(set(range(len(h.edges))) - set(lifted))
    run.check(checks.intersecting(h, new if new_pairs_only else None), "extension is not intersecting")


def _check_uniform(run, u, h):
    r1 = len(h.sides)
    tails = [v for side in range(r1) for v in
             ((side, p) for p in range(len(h.sides[side]), len(u.sides[side])))]
    run.check(
        u.edge_labels == h.edge_labels
        and all(len(e) == r1 and set(e) >= set(f) for e, f in zip(u.edges, h.edges)),
        "uniformization keeps every edge and makes it full",
    )
    deg = checks.degrees(u)
    run.check(all(deg[v] == 1 for v in tails), "tail vertices are private")


# --- deep-cover-q5 ---


def deep_cover(run, orders, workdir=None):
    t = _truncation(run, orders[0])
    q = orders[0].q
    res = run.call(solver.cover_number, t, upper_hint=q, jobs=1)
    _check_cover(run, t, res, q, "base")
    run.check(checks.degree_bound(t) == q, "degree bound on the base")
    for o in orders:
        _deep_chain(run, t, o)


def _deep_chain(run, t, o):
    q, r = o.q, o.q + 1
    spec = run.call(construct.select_f_default, t, o.anchor)
    violations = run.call(construct.validate_spec, spec, check_cover_uniqueness=True, jobs=1)
    run.check(violations == [], f"validate_spec: {violations}")
    reduced = checks.Rhg(t.sides, t.edges[:o.anchor] + t.edges[o.anchor + 1:], None)
    run.check(checks.degree_bound(reduced) == q
              and all(checks.is_cover(reduced, [(s, p) for p in range(q)]) for s in range(r)),
              "the sides are minimum covers of the base minus the anchor")
    h = run.call(construct.build_extension, spec, check=False)
    _check_extension(run, h, t, spec)
    res = run.call(solver.cover_number, h, upper_hint=r, jobs=1)
    _check_cover(run, h, res, r, "extension")
    u = run.call(construct.uniformize, h)
    _check_uniform(run, u, h)
    res = run.call(solver.cover_number, u, upper_hint=r, jobs=1)
    _check_cover(run, u, res, r, "uniformized extension")
    m = run.call(solver.matching_number, u)
    run.check(m.nu == 1 and len(m.witness) == 1 and 0 <= m.witness[0] < len(u.edges)
              and checks.intersecting(u), f"nu {m.nu} with witness {m.witness}, expected 1")


# --- pipeline-all-checks ---


def pipeline(run, instances, workdir):
    for q, mode, argv in instances:
        out = os.path.join(workdir, f"pipeline-q{q}-{mode}")
        shutil.rmtree(out, ignore_errors=True)
        report_path = os.path.join(out, "report.json")
        argv = [*argv, "--out-dir", out, "--json", report_path]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = run.call(cli.main, argv)
        run.check(rc == 0, f"pipeline q={q} {mode} exited {rc}")
        if rc == 0:
            _check_pipeline(run, q, mode, report_path)
        shutil.rmtree(out, ignore_errors=True)


def _check_pipeline(run, q, mode, report_path):
    r = q + 1
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    run.check(report["overall"] == "pass", f"pipeline q={q} {mode}: overall {report['overall']}")
    certs = {c["name"]: c.get("certificate") or {} for c in report["checks"]}
    files = {}
    for a in report.get("artifacts", []):
        with open(a["path"], "rb") as fh:
            data = fh.read()
        run.check(hashlib.sha256(data).hexdigest() == a["sha256"], f"digest of {a['path']}")
        files[os.path.basename(a["path"])] = checks.parse_rhg(data.decode())
    names = [f"t{r}.rhg", f"ext_q{q}_{mode}.rhg", f"ext_q{q}_{mode}_uniform.rhg",
             f"minimized_q{q}_{mode}.rhg"]
    if not all(n in files for n in names):
        run.check(False, f"pipeline q={q} {mode}: artifacts {sorted(files)}")
        return
    base, ext, uni, mini = (files[n] for n in names)
    what = f"pipeline q={q} {mode}"

    run.check(checks.truncation_ok(base, q), f"{what}: base structure")
    run.check(checks.degree_bound(base) == q, f"{what}: degree bound on the base")
    for name, h, tau in (("base-properties", base, q), ("extension-cover-number", ext, r)):
        c = certs.get(name, {})
        wit = [checks.vid(v) for v in c.get("witness", [])]
        run.check(c.get("tau") == tau and checks.witness_ok(h, tau, wit),
                  f"{what}: {name} certificate {c}")
    run.check(len(ext.sides) == r + 1 and checks.intersecting(ext), f"{what}: extension")
    ratio = certs.get("ryser-ratio", {})
    run.check(ratio.get("tau") == r and ratio.get("nu") == 1, f"{what}: ratio {ratio}")
    for name, h in (("uniform", uni), ("minimized", mini)):
        run.check(all(len(e) == r + 1 for e in h.edges) and checks.intersecting(h),
                  f"{what}: {name} artifact is not uniform and intersecting")
    pairs = {(e, lab) for e, lab in zip(uni.edges, uni.edge_labels) if lab[:2] in ("E2", "E3")}
    run.check(sum(lab[:2] == "E3" for _, lab in pairs) == r
              and pairs <= set(zip(mini.edges, mini.edge_labels)),
              f"{what}: minimization dropped an E2/E3 edge")
    mc = certs.get("minimality-reduction", {})
    run.check(mc.get("kept") == len(mini.edges) and mc.get("deleted", 0) + len(mini.edges) == len(uni.edges),
              f"{what}: minimization counts {mc}")
    counts = certs.get("addable-edge-classification", {}).get("counts", {})
    run.check(counts.get("violation", 0) == 0, f"{what}: {counts.get('violation')} violations")
    if q == 4:
        run.check(counts == dict(checks.addable_edge_counts(ext)),
                  f"{what}: classification {counts} differs from the product enumeration")
        for name, h, tau in (("base", base, q), ("extension", ext, r),
                             ("uniform", uni, r), ("minimized", mini, r)):
            got = checks.subset_scan_tau(h, tau)
            run.check(got == tau, f"{what}: subset-scan tau of the {name} is {got}, expected {tau}")


# --- profile-family ---


def profile_family(run, inputs, workdir):
    family, iso = inputs
    for o in family:
        t = _truncation(run, o)
        fingerprints = set()
        for prof in o.profiles:
            spec = run.call(construct.select_f_by_profile, t, o.anchor, prof)
            h = run.call(construct.build_extension, spec, check=True, check_cover_uniqueness=False)
            _check_extension(run, h, t, spec, new_pairs_only=True)
            u = run.call(construct.uniformize, h)
            _check_uniform(run, u, h)
            pairs = run.call(construct.extract_pair_subhypergraph, h)
            run.check(
                list(zip(pairs.edges, pairs.edge_labels))
                == [(e, lab) for e, lab in zip(h.edges, h.edge_labels) if lab[:2] in ("E2", "E3")],
                f"q={o.q} {prof.x}: pair sub-hypergraph",
            )
            first = sorted(d for (s, _), d in checks.degrees(pairs).items() if s == 0 and d)
            run.check(first == sorted([1] + [2 * x for x in (*prof.x, prof.x_last)]),
                      f"q={o.q} {prof.x}: first-side degrees {first}")
            fp = run.call(analysis.degree_fingerprint, pairs)
            run.check(list(fp) == sorted(checks.degrees(pairs).values()),
                      f"q={o.q} {prof.x}: fingerprint")
            fingerprints.add(fp)
            path = os.path.join(workdir, f"family-q{o.q}.rhg")
            run.call(hypergraph.write_rhg, u, path)
            back = run.call(hypergraph.read_rhg, path)
            run.check((back.sides, back.edges, back.edge_labels) == (u.sides, u.edges, u.edge_labels),
                      f"q={o.q} {prof.x}: .rhg round trip")
        run.check(len(fingerprints) == len(o.profiles),
                  f"q={o.q}: {len(o.profiles)} profiles, {len(fingerprints)} fingerprints")
    for o in iso:
        t = _truncation(run, o)
        spec = run.call(construct.select_f_default, t, o.anchor)
        h = run.call(construct.build_extension, spec, check=True, check_cover_uniqueness=False)
        _check_extension(run, h, t, spec)
        for copy_seed in o.copy_seeds:
            b = relabelled(h, random.Random(copy_seed))
            res = run.call(analysis.exact_isomorphic, h, b)
            run.check(res.isomorphic and checks.isomorphism_ok(h, b, res.vertex_map),
                      f"q={o.q}: relabelled copy {copy_seed} not mapped onto itself")


def relabelled(h, rng):
    """A copy of h with sides, vertices within sides, and edges shuffled."""
    k = len(h.sides)
    side_to = rng.sample(range(k), k)
    pos_to = [rng.sample(range(len(side)), len(side)) for side in h.sides]
    sides = [None] * k
    for s, labels in enumerate(h.sides):
        new = [None] * len(labels)
        for p, lab in enumerate(labels):
            new[pos_to[s][p]] = lab
        sides[side_to[s]] = new
    edges = [[(side_to[s], pos_to[s][p]) for s, p in e] for e in h.edges]
    order = rng.sample(range(len(edges)), len(edges))
    return hypergraph.PartiteHypergraph(
        sides, [edges[i] for i in order], [h.edge_labels[i] for i in order]
    )


WORKLOADS = {
    "deep-cover-q5": deep_cover,
    "pipeline-all-checks": pipeline,
    "profile-family": profile_family,
}
