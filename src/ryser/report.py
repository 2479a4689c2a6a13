"""Machine-checkable JSON reports with embedded certificates.

Every CLI run can emit a report: tool version, input digests, the exact
command parameters, one entry per check with status and certificate
payload, and an overall status.  Certificates embed the witnesses
themselves (covers, matchings, enumerations, mappings), so a report can
be re-validated against its input file offline without rerunning any
search; `recheck_report` does exactly that.
"""

import hashlib
import json
import os
import time

from . import __version__
from .errors import RyserError, SolverTimeout
from .hypergraph import atomic_write_text, is_intersecting, read_rhg, truncated_plane_order, vid_str

SCHEMA_ID = "ryser-report/1"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "tool", "command", "parameters", "inputs", "checks", "overall"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "tool": {
            "type": "object",
            "required": ["name", "version"],
            "properties": {
                "name": {"type": "string"},
                "version": {"type": "string"},
            },
        },
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "inputs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "sha256"],
                "properties": {
                    "path": {"type": "string"},
                    "sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
                },
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status"],
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "skipped", "timeout"]},
                    "wall_time_s": {"type": "number"},
                },
            },
        },
        "overall": {"enum": ["pass", "fail", "skipped", "timeout"]},
    },
}


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


class Check:
    """One named check: time it, record status and certificate.  A
    SolverTimeout raised inside the check is recorded as status
    "timeout", with its text as the detail, and goes no further."""

    def __init__(self, name):
        self.name = name
        self.status = "skipped"
        self.certificate = None
        self.detail = None
        self._t0 = None
        self.wall_time_s = 0.0

    def __enter__(self):
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.wall_time_s = round(time.monotonic() - self._t0, 6)
        if isinstance(exc, SolverTimeout):
            self.status, self.detail = "timeout", str(exc)
            return True
        return False

    def ok(self, condition, certificate=None, detail=None):
        self.status = "pass" if condition else "fail"
        self.certificate = certificate
        self.detail = detail
        return condition

    def skip(self, detail=None, certificate=None):
        self.status = "skipped"
        self.detail = detail
        self.certificate = certificate

    def as_dict(self):
        out = {"name": self.name, "status": self.status, "wall_time_s": self.wall_time_s}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.detail is not None:
            out["detail"] = self.detail
        return out


_STATUSES = REPORT_SCHEMA["properties"]["overall"]["enum"]


def overall_status(statuses) -> str:
    """The report's overall status, from its checks' statuses."""
    if "fail" in statuses:
        return "fail"
    if "timeout" in statuses:
        return "timeout"
    if "pass" in statuses:
        return "pass"
    return "skipped"


def make_report(command, parameters, inputs, checks):
    return {
        "schema": SCHEMA_ID,
        "tool": {"name": "ryser", "version": __version__},
        "command": command,
        "parameters": parameters,
        "inputs": inputs,
        "checks": [c.as_dict() for c in checks],
        "overall": overall_status([c.status for c in checks]),
    }


def input_entry(path) -> dict:
    return {"path": os.fspath(path), "sha256": sha256_file(path)}


def write_json_atomic(path, obj):
    """Write obj as JSON atomically; NaN or infinity raises ValueError."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


# --- certificate payload builders ---


def cover_certificate(res):
    out = {
        "kind": "cover",
        "tau": res.tau,
        "witness": [vid_str(v) for v in res.witness],
    }
    if res.all_min_covers is not None:
        out["all_min_covers"] = [
            [vid_str(v) for v in cover] for cover in res.all_min_covers
        ]
    return out


def matching_certificate(res):
    return {"kind": "matching", "nu": res.nu, "witness_edges": list(res.witness)}


def ratio_certificate(rep):
    return {
        "kind": "ratio",
        "r": rep.r,
        "tau": rep.tau,
        "nu": rep.nu,
        "ratio": rep.ratio,
        "is_ryser_extremal": rep.is_ryser_extremal,
    }


def intersecting_certificate(ok, witness):
    out = {"kind": "intersecting", "intersecting": ok}
    if witness is not None:
        out["disjoint_pair"] = list(witness)
    return out


def plane_counting_certificate(spec):
    """The certificate of cover uniqueness proved by the counting
    argument (`hypergraph.truncated_plane_order`): the base's order, its
    edge count and the anchor edge.  None when the base fails the test,
    and the proof is a search."""
    q = truncated_plane_order(spec.base)
    if q is None:
        return None
    return {"kind": "plane-counting", "q": q, "edges": spec.base.num_edges,
            "s_edge": spec.s_edge}


def classification_certificate(cls):
    """An addable-edge classification: counts per kind and the first 20
    violations of the twin patterns."""
    return {
        "kind": "extension-classification",
        "r": cls.r,
        "counts": cls.counts,
        "violations": [
            {"fresh_side": v.fresh_side,
             "vertices": [vid_str(x) for x in v.vertices]}
            for v in cls.violations[:20]
        ],
    }


# --- offline re-validation ---


# The fields recheck reads from each certificate kind, with their JSON
# types (an int field takes no bool).  A certificate lacking one, or
# holding a value of another type, is a problem and is not replayed.
_CERT_FIELDS = {
    "cover": {"tau": int, "witness": list},
    "matching": {"nu": int, "witness_edges": list},
    "ratio": {"r": int, "tau": int, "nu": int, "ratio": float, "is_ryser_extremal": bool},
    "intersecting": {"intersecting": bool},
    "plane-counting": {"q": int, "edges": int, "s_edge": int},
    "minimization": {"target_tau": int, "deleted": list, "kept": list},
}
# The kinds that record counts or descriptions, with nothing to replay.
_UNREPLAYED_KINDS = ("extension-classification", "maximal-closure", "minimization-counts")
_ENTRY_FIELDS = {
    "deleted": ("original_index", "label", "tau_after"),
    "kept": ("original_index", "label", "tau_without", "witness_without"),
}


def _malformed(cert, kind):
    """What makes a `kind` certificate unreadable: a missing field, a
    field of the wrong type, or a minimization entry that is no object
    with its fields; None when recheck can read it."""
    for key, typ in _CERT_FIELDS[kind].items():
        if key not in cert:
            return f"{kind} certificate lacks field {key!r}"
        if type(cert[key]) is not typ:
            return f"{kind} certificate field {key!r} is {cert[key]!r}, not of type {typ.__name__}"
    if kind == "cover" and not isinstance(cert.get("all_min_covers", []), list):
        return (f"cover certificate field 'all_min_covers' is {cert['all_min_covers']!r}, "
                "not of type list")
    if kind == "minimization":
        for part, keys in _ENTRY_FIELDS.items():
            for entry in cert[part]:
                if not (isinstance(entry, dict) and all(k in entry for k in keys)):
                    return f"minimization certificate {part} entry {entry!r} lacks fields of {keys}"
    return None


def _is_edge_index(i, h):
    return type(i) is int and 0 <= i < h.num_edges


def _vertex_set(tokens, names):
    """The vertices that the list `tokens` names, or None when a token is
    not a key of `names`, the input's `vid_str` -> vertex table."""
    if not isinstance(tokens, list) or not all(isinstance(t, str) and t in names for t in tokens):
        return None
    return {names[t] for t in tokens}


def _check_cover_cert(cert, h, names, problems, where):
    covers = [("witness", cert["witness"])]
    covers += [(f"enumerated cover {i}", c) for i, c in enumerate(cert.get("all_min_covers", []))]
    for what, tokens in covers:
        cset = _vertex_set(tokens, names)
        if cset is None:
            problems.append(f"{where}: {what} names no vertex set of the input")
        elif len(cset) != cert["tau"]:
            problems.append(f"{where}: {what} size differs from tau")
        elif not all(cset & set(e) for e in h.edges):
            problems.append(f"{where}: {what} does not cover every edge")


def _check_matching_cert(cert, h, problems, where):
    if not all(_is_edge_index(ei, h) for ei in cert["witness_edges"]):
        problems.append(f"{where}: witness edges {cert['witness_edges']!r} are not edge indices")
        return
    masks = h.edge_masks
    used = 0
    for ei in cert["witness_edges"]:
        if masks[ei] & used:
            problems.append(f"{where}: witness edges are not disjoint")
            return
        used |= masks[ei]
    if len(cert["witness_edges"]) != cert["nu"]:
        problems.append(f"{where}: witness size differs from nu")
    elif problem := _nu_problem(cert["nu"], h):
        problems.append(f"{where}: {problem}")


def _nu_problem(nu, h):
    """What is wrong with a claim of matching number nu on h, in the half
    of it that is decidable offline: nu = 0 needs an input with no edges,
    and nu = 1 an intersecting one, as two disjoint edges are a matching.
    A claim of nu >= 2 is trusted.  None when nothing is found."""
    if nu == 0 and h.edges:
        return f"nu 0 but the input has {h.num_edges} edges"
    if nu == 1:
        if not h.edges:
            return "nu 1 but the input has no edges"
        ok, pair = is_intersecting(h)
        if not ok:
            return f"nu 1 but edges {pair[0]} and {pair[1]} of the input are disjoint"
    return None


def _check_ratio_cert(cert, h, problems, where):
    """A passing ratio certificate claims tau = (r-1)*nu with nu >= 1 and
    ratio tau/nu, and r is the input's side count when there is an input,
    against which nu = 1 is replayed as `_nu_problem` does."""
    r, tau, nu = cert["r"], cert["tau"], cert["nu"]
    if nu < 1:
        problems.append(f"{where}: nu {nu} is below 1")
    elif cert["ratio"] != tau / nu:
        problems.append(f"{where}: ratio {cert['ratio']!r} differs from tau/nu = {tau / nu!r}")
    if cert["is_ryser_extremal"] != (tau == (r - 1) * nu):
        problems.append(f"{where}: extremality flag inconsistent")
    elif not cert["is_ryser_extremal"]:
        problems.append(f"{where}: passes with a ratio that is not Ryser-extremal")
    if h is not None and r != h.num_sides:
        problems.append(f"{where}: r {r} differs from the input's {h.num_sides} sides")
    if h is not None and nu >= 1 and (problem := _nu_problem(nu, h)):
        problems.append(f"{where}: {problem}")


def minimization_certificate(trace):
    """The per-edge certificate of `ryser minimize`, which
    _check_minimization_cert replays: each deleted edge with the cover
    number after its deletion, each kept edge with the smaller cover
    found without it."""
    return {
        "kind": "minimization",
        "target_tau": trace.target_tau,
        "deleted": [
            {"original_index": d.original_index,
             "label": d.label,
             "tau_after": d.cert.tau}
            for d in trace.deleted
        ],
        "kept": [
            {"original_index": k.original_index,
             "label": k.label,
             "tau_without": k.cert.tau,
             "witness_without": [vid_str(v) for v in k.cert.witness]}
            for k in trace.kept
        ],
    }


def _check_minimization_cert(cert, h, names, problems, where):
    """Replay a `ryser minimize` certificate: the final hypergraph is the
    input less the deleted edges, and each kept edge's witness is a set
    of target_tau - 1 vertices that covers every other final edge but
    not that one, so deleting the edge would lower tau."""
    deleted = [d["original_index"] for d in cert["deleted"]]
    kept = [k["original_index"] for k in cert["kept"]]
    if (not all(_is_edge_index(i, h) for i in deleted + kept)
            or sorted(deleted + kept) != list(range(h.num_edges))):
        problems.append(f"{where}: deleted and kept edges do not partition "
                        f"the input's {h.num_edges} edges")
        return
    target = cert["target_tau"]
    for entry in cert["deleted"] + cert["kept"]:
        if entry["label"] != h.edge_labels[entry["original_index"]]:
            problems.append(f"{where}: edge {entry['original_index']} label differs from the input's")
    for d in cert["deleted"]:
        if d["tau_after"] != target:
            problems.append(f"{where}: deleting edge {d['original_index']} changes tau")
    final = [(i, set(h.edges[i])) for i in sorted(kept)]
    for k in cert["kept"]:
        i = k["original_index"]
        witness = _vertex_set(k["witness_without"], names)
        if witness is None:
            problems.append(f"{where}: kept edge {i} witness names no vertex set of the input")
        elif k["tau_without"] != target - 1:
            problems.append(f"{where}: kept edge {i} has tau_without "
                            f"{k['tau_without']}, expected {target - 1}")
        elif len(witness) != target - 1:
            problems.append(f"{where}: kept edge {i} witness has "
                            f"{len(witness)} vertices, expected {target - 1}")
        elif not all(witness & e for j, e in final if j != i):
            problems.append(f"{where}: kept edge {i} witness does not cover "
                            f"the final hypergraph without that edge")
        elif witness & set(h.edges[i]):
            problems.append(f"{where}: kept edge {i} witness covers the whole "
                            f"final hypergraph with fewer than {target} vertices")


def _check_plane_counting_cert(cert, h, spec, problems, where):
    """The input passes the truncated-plane test with the certificate's
    order and edge count, and s_edge is an edge of it (the spec's anchor
    edge, when the report has a spec)."""
    if truncated_plane_order(h) != cert["q"] or h.num_edges != cert["edges"]:
        problems.append(f"{where}: input is not a truncated plane of order {cert['q']} "
                        f"with {cert['edges']} edges")
    s_edge = cert["s_edge"]
    if not 0 <= s_edge < h.num_edges or (spec is not None and spec.get("s_edge") != s_edge):
        problems.append(f"{where}: s_edge {s_edge} is not the anchor edge of the spec")


def _entries(report, key, fields, problems):
    """The entries of the list report[key] that are objects with string
    `fields`; each other entry, or a value that is no list, is a problem."""
    value = report.get(key, [])
    if not isinstance(value, list):
        problems.append(f"report field {key!r} is {value!r}, not a list")
        return []
    good = []
    for entry in value:
        if isinstance(entry, dict) and all(isinstance(entry.get(f), str) for f in fields):
            good.append(entry)
        else:
            problems.append(f"{key} entry {entry!r} lacks a string {' or '.join(fields)}")
    return good


def recheck_report(report, base_dir="."):
    """Re-verify a report's digests and certificates against its input
    files.  An input that is missing, differs from its digest or does
    not load is a problem, and recheck goes on without it.  Witness
    validity is checked directly; search optimality is not re-proved,
    except for the half of a matching number that is decidable offline:
    a matching or ratio certificate's nu = 0 needs an input with no
    edges, and nu = 1 an intersecting input.  A claim of nu >= 2 is
    trusted beyond its witness, which shows only that nu is at least
    that.
    A minimization certificate is replayed against the
    input: its final hypergraph, and each kept edge's witness of
    criticality.  The kinds in _UNREPLAYED_KINDS (the pipeline's
    `minimization-counts` summary among them) hold nothing to replay; a
    passing certificate of any kind recheck neither replays nor lists
    there is a problem.  A plane-counting certificate is replayed by
    testing the input base again, and an intersecting one that claims
    true by testing the input.  A passing ratio certificate needs
    nu >= 1, ratio tau/nu, a true extremality flag that agrees with
    tau = (r-1)*nu, and r the input's side count and, for nu = 1, an
    intersecting input, when there is one.  A passing cover, matching,
    intersecting, plane-counting or minimization certificate with no
    input hypergraph to check it against is a problem, and so is a
    certificate lacking a field that recheck reads or holding one of
    another type, and so is a malformed envelope: a report that is no
    object, `inputs` or `checks` that is no list, an entry of them that
    is no object with string fields `path` and `sha256` (`name` and
    `status`), or a `spec` that is no object.  So is a check status
    outside the schema's enum, and an `overall` other than the one
    `overall_status` gives for the checks.  Returns a list of problems
    (empty = consistent)."""
    if not isinstance(report, dict):
        return [f"report is a {type(report).__name__}, not an object"]
    problems = []
    spec = report.get("spec")
    if spec is not None and not isinstance(spec, dict):
        problems.append(f"report field 'spec' is {spec!r}, not an object")
        spec = None
    hypergraphs = {}
    for entry in _entries(report, "inputs", ("path", "sha256"), problems):
        path = entry["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.isfile(path):
            problems.append(f"input {entry['path']} missing or not a file")
            continue
        digest = sha256_file(path)
        if digest != entry["sha256"]:
            problems.append(f"input {entry['path']} digest mismatch")
            continue
        if path.endswith(".rhg"):
            try:
                hypergraphs[entry["path"]] = read_rhg(path)
            except RyserError as e:
                problems.append(f"input {entry['path']} does not load: {e}")
    h = next(iter(hypergraphs.values()), None)
    names = None if h is None else {vid_str(v): v for v in h.vertices()}
    checks = _entries(report, "checks", ("name", "status"), problems)
    for chk in checks:
        if chk["status"] not in _STATUSES:
            problems.append(f"{chk['name']}: status {chk['status']!r} is not one of "
                            f"{', '.join(_STATUSES)}")
    overall = overall_status([chk["status"] for chk in checks])
    if report.get("overall") != overall:
        problems.append(f"overall {report.get('overall')!r} differs from {overall!r}, "
                        f"that of the checks")
    for chk in checks:
        cert = chk.get("certificate")
        if not isinstance(cert, dict) or chk["status"] != "pass":
            continue
        where = chk["name"]
        kind = cert.get("kind")
        if kind in _UNREPLAYED_KINDS:
            continue
        if not isinstance(kind, str) or kind not in _CERT_FIELDS:
            problems.append(f"{where}: certificate kind {kind!r} is not one recheck knows")
            continue
        malformed = _malformed(cert, kind)
        if malformed:
            problems.append(f"{where}: {malformed}")
        elif kind != "ratio" and h is None:  # only a ratio reads no input
            problems.append(f"{where}: no input hypergraph to check the {kind} certificate against")
        elif kind == "cover":
            _check_cover_cert(cert, h, names, problems, where)
        elif kind == "matching":
            _check_matching_cert(cert, h, problems, where)
        elif kind == "minimization":
            _check_minimization_cert(cert, h, names, problems, where)
        elif kind == "plane-counting":
            _check_plane_counting_cert(cert, h, spec, problems, where)
        elif kind == "ratio":
            _check_ratio_cert(cert, h, problems, where)
        elif kind == "intersecting":
            if cert["intersecting"]:
                if not h.edges or not is_intersecting(h)[0]:
                    problems.append(f"{where}: input is not intersecting")
            else:
                pair = cert.get("disjoint_pair")
                if not (isinstance(pair, list) and len(pair) == 2
                        and all(_is_edge_index(i, h) for i in pair)):
                    problems.append(f"{where}: disjoint pair {pair!r} is not two edge indices")
                elif set(h.edges[pair[0]]) & set(h.edges[pair[1]]):
                    problems.append(f"{where}: claimed disjoint pair intersects")
    return problems
