"""Command-line entry point: reproducible pipelines with JSON reports.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 usage or
config error, 3 a search timed out (result incomplete).  Every
subcommand accepts --json PATH.  truncate, construct, verify, minimize,
maximal-check and pipeline write a `ryser-report/1` report there, with
certificates and input digests (see report.py); field, plane,
fingerprint, iso, profiles and corpus write a plain JSON object of
their results.  RYSER_TIMEOUT_SECS overrides the default solver budget.

`main` builds its argument parser on the first call and reuses it, so
an in-process caller making many calls pays for argparse once; no
parser default depends on the environment.  `build_parser()` returns a
fresh parser.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings

from . import __version__
from .analysis import (
    classify_extensions,
    degree_fingerprint,
    exact_isomorphic,
    fingerprint_str,
    maximal_closure_description,
    minimize,
)
from .construct import (
    ConstructionSpec,
    DegreeProfile,
    build_extension,
    extract_pair_subhypergraph,
    profile_count,
    select_f_by_profile,
    select_f_default,
    uniformize,
    validate_spec,
)
from .errors import ConfigError, RyserError, SizeExceededError, SolverTimeout
from .gf import MAX_ORDER, FiniteField
from .hypergraph import atomic_write_text, dumps_rhg, is_intersecting, read_rhg, vid_str
from .plane import bruck_ryser_excluded, build_plane, truncate
from .report import (
    Check,
    classification_certificate,
    cover_certificate,
    input_entry,
    intersecting_certificate,
    make_report,
    matching_certificate,
    minimization_certificate,
    plane_counting_certificate,
    ratio_certificate,
    sha256_bytes,
    write_json_atomic,
)
from .solver import DEFAULT_TIMEOUT, cover_number, matching_number, verify_ryser_ratio

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3


def default_timeout() -> float:
    raw = os.environ.get("RYSER_TIMEOUT_SECS")
    if raw is None:
        return DEFAULT_TIMEOUT
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"RYSER_TIMEOUT_SECS={raw!r} is not a number") from None


def resolve_timeout(value):
    """The solver budget in seconds: `value` (a flag or config value) or
    else `default_timeout()`.  NaN, which no clock reaches, and negative
    budgets are config errors; 0 times out at once and inf never does."""
    seconds = default_timeout() if value is None else float(value)
    if not seconds >= 0:
        raise ConfigError(f"timeout must be a non-negative number of seconds, got {seconds}")
    return seconds


def factor_prime_power(q: int):
    """(p, k) with q = p**k for a prime p; the least factor is found by
    trial division up to isqrt(q), and q is prime when none divides."""
    if q < 2:
        raise ConfigError(f"q={q} is not a prime power")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    n = q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ConfigError(f"q={q} is not a prime power")
    return p, k


def _check_order(q: int):
    """Refuse a plane order above the field bound before factoring it."""
    if q > MAX_ORDER:
        raise SizeExceededError(f"field order {q} exceeds {MAX_ORDER}")


def build_truncation(q: int, vertex=None):
    _check_order(q)
    return truncate(build_plane(FiniteField(*factor_prime_power(q))), vertex)


def _finish(args, command, parameters, inputs, checks, artifacts=None, spec=None):
    report = make_report(command, parameters, inputs, checks)
    if artifacts:
        report["artifacts"] = artifacts
    if spec is not None:
        report["spec"] = spec
    json_path = getattr(args, "json", None)
    if json_path:
        write_json_atomic(json_path, report)
    status = report["overall"]
    if status == "fail":
        return EXIT_FAIL
    if status == "timeout":
        return EXIT_TIMEOUT
    return EXIT_PASS


def _write_artifact(h, path):
    """Write `h` atomically as .rhg text; returns its report entry, the
    path and the SHA-256 of the text written."""
    text = dumps_rhg(h)
    atomic_write_text(path, text)
    return {"path": os.fspath(path), "sha256": sha256_bytes(text.encode())}


# --- field / plane / truncate ---


def cmd_field(args):
    f = FiniteField(args.p, args.k)
    print(f"GF({f.q}) = GF({f.p}^{f.k}), modulus coefficients (low degree first): {list(f.modulus)}")
    if args.dump:
        if f.q <= 64:
            print("add table:")
            for a in range(f.q):
                print(" ".join(str(f.add(a, b)) for b in range(f.q)))
            print("mul table:")
            for a in range(f.q):
                print(" ".join(str(f.mul(a, b)) for b in range(f.q)))
        else:
            print(f"(tables suppressed for q={f.q} > 64)")
    if args.json:
        out = {"p": f.p, "k": f.k, "q": f.q, "modulus": list(f.modulus)}
        if f.q <= 64:
            out["add_table"] = [[f.add(a, b) for b in range(f.q)] for a in range(f.q)]
            out["mul_table"] = [[f.mul(a, b) for b in range(f.q)] for a in range(f.q)]
        write_json_atomic(args.json, out)
    return EXIT_PASS


def cmd_plane(args):
    if args.q < 2:
        raise ConfigError(f"plane order must be at least 2, got {args.q}")
    _check_order(args.q)
    try:
        p, k = factor_prime_power(args.q)
    except ConfigError:
        excluded = bruck_ryser_excluded(args.q)
        verdict = ("excluded by the Bruck-Ryser criterion" if excluded
                   else "not excluded by the Bruck-Ryser criterion, existence open here")
        print(f"order {args.q} is not a prime power: no plane built; {verdict}")
        if args.json:
            write_json_atomic(args.json, {
                "q": args.q, "built": False, "bruck_ryser_excluded": excluded,
            })
        return EXIT_FAIL
    pp = build_plane(FiniteField(p, k))
    n = len(pp.points)
    print(f"PG(2,{args.q}): {n} points, {n} lines, {args.q + 1} points per line")
    if args.dump:
        lines = [
            " ".join(pp.point_label(pi) for pi in pts) for pts in pp.line_points
        ]
        atomic_write_text(args.dump, "\n".join(lines) + "\n")
        print(f"wrote {args.dump}")
    if args.json:
        write_json_atomic(args.json, {
            "q": args.q,
            "built": True,
            "points": n,
            "lines": n,
            "line_size": args.q + 1,
            "bruck_ryser_excluded": bruck_ryser_excluded(args.q),
        })
    return EXIT_PASS


def cmd_truncate(args):
    t = build_truncation(args.q, args.vertex)
    artifact = _write_artifact(t, args.out)
    checks = []
    with Check("truncation-structure") as c:
        r = args.q + 1
        ok_shape = (
            t.num_sides == r
            and t.side_sizes == (args.q,) * r
            and t.num_edges == args.q * args.q
            and t.uniformity == r
        )
        inter, wit = is_intersecting(t)
        c.ok(ok_shape and inter, intersecting_certificate(inter, wit),
             detail=f"{r} sides of {args.q}, {t.num_edges} edges")
    checks.append(c)
    print(f"wrote {args.out}: {t.num_sides} sides, {t.num_edges} edges")
    return _finish(args, "truncate",
                   {"q": args.q, "vertex": args.vertex if args.vertex is not None else 0,
                    "out": os.fspath(args.out)},
                   [], checks, artifacts=[artifact])


# --- construct ---


_DECIMAL = re.compile(r"-?[0-9]+")  # int() would also take "1_0" and " 10 "


def parse_f_edges(text, r):
    out = [None] * r
    for part in text.split(","):
        i, _, e = (v.strip() for v in part.partition(":"))
        if not (_DECIMAL.fullmatch(i) and _DECIMAL.fullmatch(e)):
            raise ConfigError(f"bad --f-edges entry {part!r}, expected i:edge")
        i, e = int(i), int(e)
        if not 1 <= i <= r:
            raise ConfigError(f"--f-edges side {i} out of range 1..{r}")
        if out[i - 1] is not None:
            raise ConfigError(f"--f-edges side {i} given twice")
        out[i - 1] = e
    if any(v is None for v in out):
        missing = [str(i + 1) for i, v in enumerate(out) if v is None]
        raise ConfigError(f"--f-edges missing sides {','.join(missing)}")
    return tuple(out)


def _ints(value, what):
    """The integers of a comma-separated flag value, or of a config list
    of JSON integers (a float or a bool is none)."""
    if isinstance(value, str):
        parts = [v.strip() for v in value.split(",")]
        if all(_DECIMAL.fullmatch(v) for v in parts):
            return tuple(map(int, parts))
    elif isinstance(value, list) and all(type(v) is int for v in value):
        return tuple(value)
    raise ConfigError(f"{what} must list integers, got {value!r}")


def make_spec(base, s_edge, mode, value, strict):
    """The construction spec of F mode `mode` ("default", "edges" or
    "profile").  `value` is the mode's selected edges or degree profile:
    the flag's string ("i:e,..." or "x1,x2,...") or a config's list of
    integers (edge indices or block sizes)."""
    if not 0 <= s_edge < base.num_edges:
        raise ConfigError(f"s_edge {s_edge} is not an edge index 0..{base.num_edges - 1}")
    if mode == "default":
        return select_f_default(base, s_edge)
    if mode not in ("edges", "profile"):
        raise ConfigError(f"f must be 'default', 'edges' or 'profile', got {mode!r}")
    key = "f_edges" if mode == "edges" else "profile"
    if value is None:
        raise ConfigError(f"f={mode!r} needs a {key} value")
    if mode == "edges":
        f_edges = (parse_f_edges(value, base.num_sides) if isinstance(value, str)
                   else _ints(value, key))
        return ConstructionSpec(base, s_edge, f_edges)
    prof = DegreeProfile(base.num_sides, _ints(value, key))
    return select_f_by_profile(base, s_edge, prof, strict=strict)


def spec_block(spec, base_path, report_path=None):
    """The report's spec object.  A relative base path is written relative
    to the report's directory, where `load_spec_json` reads it from."""
    base_path = os.fspath(base_path)
    if report_path is not None and not os.path.isabs(base_path):
        base_path = os.path.relpath(base_path, os.path.dirname(os.path.abspath(report_path)))
    return {"s_edge": spec.s_edge, "f_edges": list(spec.f_edges), "base": base_path}


def cmd_construct(args):
    args.timeout = resolve_timeout(args.timeout)
    base = read_rhg(args.base)
    mode = "default" if args.f_default else "edges" if args.f_edges is not None else "profile"
    spec = make_spec(base, args.s_edge, mode, args.f_edges if mode == "edges" else args.profile,
                     not args.relaxed_profile)
    c = _spec_check("construction-preconditions", spec, args.timeout)
    checks = [c]
    if c.status in ("fail", "timeout"):
        return _finish(args, "construct", vars_params(args), [input_entry(args.base)], checks)
    h = build_extension(spec, check=False)
    if args.uniformize:
        h = uniformize(h)
    artifact = _write_artifact(h, args.out)
    print(f"wrote {args.out}: {h.num_sides} sides, {h.num_edges} edges")
    return _finish(args, "construct", vars_params(args), [input_entry(args.base)], checks,
                   artifacts=[artifact],
                   spec=spec_block(spec, args.base, args.json))


def _spec_check(name, spec, timeout):
    """The check `name` of every construction precondition of spec."""
    with Check(name) as c:
        violations = validate_spec(spec, timeout=timeout)
        c.ok(not violations, None if violations else plane_counting_certificate(spec),
             detail="; ".join(map(str, violations)) or "all hypotheses hold")
    return c


def vars_params(args):
    """The command's parameters, an unlimited budget as "inf" (JSON has no infinity)."""
    skip = {"func", "json"}
    return {k: "inf" if v == math.inf else v
            for k, v in vars(args).items() if k not in skip and v is not None}


# --- verify ---


def cmd_verify(args):
    args.timeout = resolve_timeout(args.timeout)
    h = read_rhg(args.file)
    run_all = not (args.tau or args.nu or args.ratio or args.enumerate_min_covers)
    checks = []
    if args.tau or args.enumerate_min_covers or run_all:
        with Check("cover-number") as c:
            res = cover_number(h, enumerate_all=args.enumerate_min_covers, timeout=args.timeout)
            c.ok(True, cover_certificate(res))
            print(f"tau = {res.tau}" + (
                f" ({len(res.all_min_covers)} minimum covers)"
                if res.all_min_covers is not None else ""))
        checks.append(c)
    if args.nu or run_all:
        with Check("matching-number") as c:
            res = matching_number(h, timeout=args.timeout)
            c.ok(True, matching_certificate(res))
            print(f"nu = {res.nu}")
        checks.append(c)
    if args.ratio:
        with Check("ryser-ratio") as c:
            rep = verify_ryser_ratio(h, timeout=args.timeout)
            c.ok(rep.is_ryser_extremal, ratio_certificate(rep),
                 detail=f"tau={rep.tau}, nu={rep.nu}, r={rep.r}")
            print(f"ratio: tau={rep.tau} nu={rep.nu} "
                  f"{'extremal' if rep.is_ryser_extremal else 'not extremal'}")
        checks.append(c)
    return _finish(args, "verify", vars_params(args), [input_entry(args.file)], checks)


# --- minimize ---


def cmd_minimize(args):
    args.timeout = resolve_timeout(args.timeout)
    h = read_rhg(args.file)
    checks = []
    trace = None
    with Check("minimality-reduction") as c:
        trace = minimize(h, timeout=args.timeout, order=args.order)
        every_critical = all(k.cert.tau == trace.target_tau - 1 for k in trace.kept)
        c.ok(every_critical, minimization_certificate(trace),
             detail=f"deleted {len(trace.deleted)}, kept {len(trace.kept)}")
    checks.append(c)
    artifacts = None
    if trace is not None and args.out:
        artifacts = [_write_artifact(trace.final, args.out)]
        print(f"wrote {args.out}: {trace.final.num_edges} edges "
              f"({len(trace.deleted)} deleted)")
    return _finish(args, "minimize", vars_params(args), [input_entry(args.file)],
                   checks, artifacts=artifacts)


# --- maximal-check ---


def load_json_object(path, what):
    """The JSON object in the UTF-8 file `path`; anything else is a config
    error naming the file as `what`."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or not UTF-8
        raise ConfigError(f"cannot read {what} {path}: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} holds no JSON object")
    return data


def load_spec_json(path):
    data = load_json_object(path, "spec file")
    data = data.get("spec", data)  # a construct report holds its spec
    if not isinstance(data, dict):
        raise ConfigError(f"spec file {path} holds no JSON object")
    for key in ("base", "s_edge", "f_edges"):
        if key not in data:
            raise ConfigError(f"spec file {path} lacks key {key!r}")
    base_path = data["base"]
    if not isinstance(base_path, str):
        raise ConfigError(f"spec file {path}: base must be a path string, got {base_path!r}")
    if not os.path.isabs(base_path):
        base_path = os.path.join(os.path.dirname(os.path.abspath(path)), base_path)
    base = read_rhg(base_path)
    if type(data["s_edge"]) is not int:
        raise ConfigError(f"spec file {path}: s_edge must be an integer, "
                          f"got {data['s_edge']!r}")
    s_edge = data["s_edge"]
    if not isinstance(data["f_edges"], list):
        raise ConfigError(f"spec file {path}: f_edges must be a list, got {data['f_edges']!r}")
    spec = make_spec(base, s_edge, "edges", data["f_edges"], True)
    # maximal-check builds the extension unchecked, so every index must be valid here
    m = base.num_edges
    if len(spec.f_edges) != base.num_sides or not all(0 <= e < m for e in spec.f_edges):
        raise ConfigError(f"spec file {path}: f_edges {list(spec.f_edges)} must be "
                          f"{base.num_sides} edge indices 0..{m - 1}")
    return spec, base_path


def cmd_maximal_check(args):
    args.timeout = resolve_timeout(args.timeout)
    h = read_rhg(args.file)
    spec, base_path = load_spec_json(args.spec)
    checks = []
    with Check("input-matches-spec") as c:
        rebuilt = build_extension(spec, check=False)
        c.ok(rebuilt == h, detail="input file equals the spec's construction"
             if rebuilt == h else "input file differs from the spec's construction")
    checks.append(c)
    if c.status == "fail":
        return _finish(args, "maximal-check", vars_params(args),
                       [input_entry(args.file), input_entry(args.spec)], checks)
    c, cls = _classification_check(h, spec, args.timeout)
    if cls is not None:
        print(f"candidates: {cls.counts}")
    checks.append(c)
    if cls is not None and cls.pattern_guaranteed and not cls.violations:
        with Check("maximal-closure-description") as c:
            rep = maximal_closure_description(spec, cls)
            c.ok(len(rep.families) == 2 * rep.r, {
                "kind": "maximal-closure",
                "families": [
                    {"kind": f.kind, "index": f.index, "fresh_side": f.fresh_side,
                     "fixed_vertices": [vid_str(v) for v in f.fixed_vertices]}
                    for f in rep.families
                ],
            })
        checks.append(c)
    return _finish(args, "maximal-check", vars_params(args),
                   [input_entry(args.file), input_entry(args.spec)], checks)


def _classification_check(h, spec, timeout):
    """The classification check of the extension h of spec, with the
    classification (None when it timed out).  A warning the
    classification gives (r < 5) is printed as one `warning:` line on
    stderr, without the source location Python's display adds."""
    cls = None
    with Check("addable-edge-classification") as c:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            try:
                cls = classify_extensions(h, spec, timeout=timeout)
            finally:  # the warning comes before the search, which may time out
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
        cert = classification_certificate(cls)
        if cls.pattern_guaranteed:
            c.ok(not cls.violations, cert,
                 detail=f"{len(cls.candidates)} candidates, "
                        f"{len(cls.violations)} violations")
        else:
            c.skip(detail=f"r={cls.r} < 5: classification recorded, "
                          f"pattern guarantee not asserted "
                          f"({len(cls.violations)} candidates outside the patterns)",
                   certificate=cert)
    return c, cls


# --- fingerprint / iso / profiles ---


def cmd_fingerprint(args):
    h = read_rhg(args.file)
    fp = degree_fingerprint(h)
    print(fingerprint_str(fp))
    if args.json:
        write_json_atomic(args.json, {
            "file": os.fspath(args.file),
            "fingerprint": list(fp),
            "compact": fingerprint_str(fp),
        })
    return EXIT_PASS


def cmd_iso(args):
    a = read_rhg(args.a)
    b = read_rhg(args.b)
    res = exact_isomorphic(a, b)
    print("isomorphic" if res.isomorphic else "not isomorphic")
    if args.json:
        out = {"isomorphic": res.isomorphic}
        if res.isomorphic:
            out["side_perm"] = list(res.side_perm)
            out["vertex_map"] = [[vid_str(u), vid_str(v)] for u, v in res.vertex_map]
        write_json_atomic(args.json, out)
    return EXIT_PASS if res.isomorphic else EXIT_FAIL


def cmd_profiles(args):
    pc = profile_count(args.r, delta=args.delta, t=args.t)
    print(f"r={pc.r} t={pc.t} values in [{pc.value_lo}, {pc.value_hi}]: "
          f"{pc.count} profiles" + (f" ({pc.note})" if pc.note else ""))
    if args.json:
        write_json_atomic(args.json, {
            "r": pc.r, "delta": pc.delta, "t": pc.t,
            "value_lo": pc.value_lo, "value_hi": pc.value_hi,
            "count": pc.count, "formula_bound": pc.formula_bound,
            "note": pc.note,
        })
    return EXIT_PASS


# --- pipeline ---

# The pipeline's settings, which are also the keys a config may hold, with
# their defaults and the types a value may have.  A flag given on the
# command line wins over the config value, which wins over the default.
_PIPELINE_SETTINGS = {
    "q": (None, (int,)), "vertex": (None, (int,)), "s_edge": (0, (int,)),
    "f": ("default", (str,)), "f_edges": (None, (str, list)),
    "profile": (None, (str, list)), "relaxed_profile": (False, (bool,)),
    "all_checks": (False, (bool,)), "minimize": (False, (bool,)),
    "maximal_check": (False, (bool,)), "out_dir": (None, (str,)),
    "timeout": (None, (int, float)),
}


def load_config(path):
    data = load_json_object(path, "config")
    unknown = set(data) - _PIPELINE_SETTINGS.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def cmd_pipeline(args):
    cfg = load_config(args.config) if args.config else {}
    given = {k: v for k, v in vars(args).items() if v is not None}
    # --f-edges and --profile choose the F mode as well as giving its value
    for key, f_mode in (("f_edges", "edges"), ("profile", "profile")):
        if key in given:
            given["f"] = f_mode
    opt = {}
    for key, (default, types) in _PIPELINE_SETTINGS.items():
        opt[key] = value = given.get(key, cfg.get(key, default))
        # exact types, so that true is no integer
        if type(value) not in types and not (value is None and default is None):
            names = " or ".join(t.__name__ for t in types)
            raise ConfigError(f"{key} must be of type {names}, got {value!r}")
    if opt["q"] is None:
        raise ConfigError("pipeline needs --q or a config with q")
    q, mode, out_dir = opt["q"], opt["f"], opt["out_dir"]
    timeout = resolve_timeout(opt["timeout"])
    do_min = opt["minimize"] or opt["all_checks"]
    do_max = opt["maximal_check"] or opt["all_checks"]
    params = {"q": q, "vertex": opt["vertex"] if opt["vertex"] is not None else 0,
              "s_edge": opt["s_edge"], "f_mode": mode,
              "minimize": do_min, "maximal_check": do_max}

    t = build_truncation(q, opt["vertex"])
    r = q + 1
    spec = make_spec(t, opt["s_edge"], mode, opt["f_edges"] if mode == "edges" else opt["profile"],
                     not opt["relaxed_profile"])
    checks = []
    artifacts = []

    def save(h, filename):
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            artifacts.append(_write_artifact(h, os.path.join(out_dir, filename)))

    save(t, f"t{r}.rhg")
    with Check("base-properties") as c:
        ok, wit = is_intersecting(t)
        res = cover_number(t, upper_hint=q, timeout=timeout)
        c.ok(ok and res.tau == q and t.uniformity == r,
             cover_certificate(res),
             detail=f"intersecting={ok}, tau={res.tau} (expected {q})")
    checks.append(c)

    c = _spec_check("base-cover-uniqueness", spec, timeout)
    checks.append(c)
    if c.status == "fail":
        return _finish(args, "pipeline", params, [], checks, artifacts=artifacts)

    h = build_extension(spec, check=False)
    save(h, f"ext_q{q}_{mode}.rhg")
    with Check("extension-intersecting") as c:
        ok, wit = is_intersecting(h)
        c.ok(ok, intersecting_certificate(ok, wit))
    checks.append(c)
    with Check("extension-cover-number") as c:
        res = cover_number(h, upper_hint=r, timeout=timeout)
        c.ok(res.tau == r, cover_certificate(res), detail=f"tau={res.tau} (expected {r})")
        print(f"tau(extension) = {res.tau}")
    checks.append(c)

    u = uniformize(h)
    save(u, f"ext_q{q}_{mode}_uniform.rhg")
    with Check("uniform-structure") as c:
        ok, wit = is_intersecting(u)
        c.ok(ok and u.num_sides == r + 1 and u.uniformity == r + 1,
             intersecting_certificate(ok, wit),
             detail=f"{u.num_sides} sides, uniformity {u.uniformity}")
    checks.append(c)
    with Check("ryser-ratio") as c:
        rep = verify_ryser_ratio(u, timeout=timeout)
        c.ok(rep.is_ryser_extremal and rep.tau == r, ratio_certificate(rep),
             detail=f"tau={rep.tau}, nu={rep.nu}")
    checks.append(c)

    if do_min:
        with Check("minimality-reduction") as c:
            trace = minimize(u, timeout=timeout)
            pair_labels = extract_pair_subhypergraph(u).edge_labels
            kept_labels = set(trace.final.edge_labels)
            pairs_kept = all(lab in kept_labels for lab in pair_labels)
            every_critical = all(
                k.cert.tau == trace.target_tau - 1 for k in trace.kept
            )
            # counts only, read by perfbench; `ryser minimize` writes per-edge entries
            c.ok(pairs_kept and every_critical,
                 {"kind": "minimization-counts",
                  "deleted": len(trace.deleted), "kept": len(trace.kept)},
                 detail=f"deleted {len(trace.deleted)} edges")
            save(trace.final, f"minimized_q{q}_{mode}.rhg")
        checks.append(c)

    if do_max:
        checks.append(_classification_check(h, spec, timeout)[0])

    return _finish(args, "pipeline", params, [], checks, artifacts=artifacts)


# --- corpus ---


def corpus_generate(out_dir):
    """Write the standard desk-scale corpus plus expected-report files.

    Deterministic: two runs produce byte-identical files.  Every spec is
    on a truncated plane, validated by counting: no cover search runs.
    """
    os.makedirs(out_dir, exist_ok=True)
    items = []

    def emit(h, filename):
        artifact = _write_artifact(h, os.path.join(out_dir, filename))
        inter, _ = is_intersecting(h) if h.num_edges else (None, None)
        expected = {
            "file": filename,
            "sha256": artifact["sha256"],
            "name": h.name,
            "num_sides": h.num_sides,
            "side_sizes": list(h.side_sizes),
            "num_edges": h.num_edges,
            "edge_sizes": sorted({len(e) for e in h.edges}),
            "intersecting": inter,
        }
        write_json_atomic(os.path.join(out_dir, filename + ".expected.json"), expected)
        items.append(filename)

    truncations = {q: build_truncation(q) for q in (2, 3, 4, 5)}
    for q, t in truncations.items():
        emit(t, f"t{q + 1}.rhg")
    for q in (3, 4, 5):
        t = truncations[q]
        r = q + 1
        h = build_extension(select_f_default(t, 0))
        emit(h, f"ext_q{q}_default.rhg")
        emit(uniformize(h), f"ext_q{q}_default_uniform.rhg")
        hp = build_extension(select_f_by_profile(t, 0, DegreeProfile(r, (1,)), strict=False))
        emit(hp, f"ext_q{q}_profile.rhg")
        emit(uniformize(hp), f"ext_q{q}_profile_uniform.rhg")
    t26 = build_truncation(25)
    for x1 in (4, 5):
        spec = select_f_by_profile(t26, 0, DegreeProfile(26, (x1,)), strict=True)
        h = build_extension(spec)
        emit(extract_pair_subhypergraph(h), f"pairs_r26_x{x1}.rhg")
    return items


def cmd_corpus(args):
    items = corpus_generate(args.out)
    for name in items:
        print(name)
    if args.json:
        write_json_atomic(args.json, {"out_dir": os.fspath(args.out), "files": items})
    return EXIT_PASS


# --- parser ---


# Each subcommand's `_negative_number_matcher`: argparse reads a token
# that matches it as an option's value, not as an option, and its own
# pattern knows -1 and -1.5 but not -inf, -nan or -1e3 (Python 3.10-3.13).
_SIGNED_NUMBER = re.compile(r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$",
                            re.IGNORECASE)


def _decimal_int(text):
    """The argparse type of every integer flag: decimal digits with an
    optional minus sign, nothing around them."""
    if not _DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


def positive_int(text):
    jobs = _decimal_int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _add_common(p, search=True):
    p.add_argument("--json", metavar="PATH", help="write a JSON report here")
    if search:
        p.add_argument("--timeout", type=float, default=None,
                       help="solver wall-clock budget in seconds "
                            "(default: RYSER_TIMEOUT_SECS or 60)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ryser",
        description="Construct and exactly verify Ryser-extremal intersecting hypergraphs.",
    )
    ap.add_argument("--version", action="version", version=f"ryser {__version__}")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("field", help="build GF(p^k) and optionally dump its tables")
    p.add_argument("--p", type=_decimal_int, required=True)
    p.add_argument("--k", type=_decimal_int, default=1)
    p.add_argument("--dump", action="store_true")
    _add_common(p, search=False)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("plane", help="build PG(2,q)")
    p.add_argument("--q", type=_decimal_int, required=True)
    p.add_argument("--dump", metavar="FILE", help="write one line per plane line, "
                                                  "listing normalized point triples")
    _add_common(p, search=False)
    p.set_defaults(func=cmd_plane)

    p = sub.add_parser("truncate", help="truncate PG(2,q) to an .rhg hypergraph")
    p.add_argument("--q", type=_decimal_int, required=True)
    p.add_argument("--vertex", type=_decimal_int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p, search=False)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("construct", help="build the anchored extension hypergraph")
    p.add_argument("--base", required=True)
    p.add_argument("--s-edge", type=_decimal_int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--f-default", action="store_true",
                   help="F_i = least-indexed edge other than the anchor through s_i")
    g.add_argument("--f-edges", metavar="i:e,...",
                   help="explicit selected edges, 1-based side : 0-based edge index")
    g.add_argument("--profile", metavar="x1,x2,...", help="degree-profile selection")
    p.add_argument("--relaxed-profile", action="store_true",
                   help="accept profiles outside the strict counting bounds")
    p.add_argument("--uniformize", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--report", dest="json", metavar="PATH",
                   help="write a JSON report here (alias of --json)")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="exact cover/matching verification")
    p.add_argument("file")
    p.add_argument("--tau", action="store_true")
    p.add_argument("--nu", action="store_true")
    p.add_argument("--enumerate-min-covers", action="store_true")
    p.add_argument("--ratio", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minimize", help="edge-minimality reduction with certificates")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--order", choices=("asc", "desc"), default="asc",
                   help="edge scan order for deletions")
    p.add_argument("--report", dest="json", metavar="PATH")
    _add_common(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("maximal-check", help="classify every addable edge")
    p.add_argument("file")
    p.add_argument("--spec", required=True, help="JSON with base path, s_edge, f_edges")
    p.add_argument("--report", dest="json", metavar="PATH")
    _add_common(p)
    p.set_defaults(func=cmd_maximal_check)

    p = sub.add_parser("fingerprint", help="canonical degree-multiset fingerprint")
    p.add_argument("file")
    _add_common(p, search=False)
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("iso", help="exact isomorphism test (exit 0 iff isomorphic)")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p, search=False)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("profiles", help="count valid degree profiles")
    p.add_argument("--r", type=_decimal_int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--delta", type=float)
    g.add_argument("--t", type=_decimal_int)
    _add_common(p, search=False)
    p.set_defaults(func=cmd_profiles)

    p = sub.add_parser("pipeline", help="plane -> truncate -> construct -> verify")
    p.add_argument("--config", help="JSON config file (flags override it)")
    # every pipeline flag defaults to None, meaning "not given"
    p.add_argument("--q", type=_decimal_int)
    p.add_argument("--vertex", type=_decimal_int)
    p.add_argument("--s-edge", type=_decimal_int)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--f-default", dest="f", action="store_const", const="default")
    g.add_argument("--f-edges", metavar="i:e,...")
    g.add_argument("--profile", metavar="x1,x2,...")
    for flag in ("--relaxed-profile", "--all-checks", "--minimize", "--maximal-check"):
        p.add_argument(flag, action="store_true", default=None)
    p.add_argument("--out-dir")
    p.add_argument("--jobs", type=positive_int,
                   help="accepted (at least 1) and ignored: every search runs in-process; "
                        "kept only because the benchmark in perfbench/ passes it")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("corpus", help="emit the standard desk-scale corpus")
    p.add_argument("--out", required=True)
    _add_common(p, search=False)
    p.set_defaults(func=cmd_corpus)

    for p in sub.choices.values():
        p._negative_number_matcher = _SIGNED_NUMBER
    return ap


@functools.cache
def _parser():
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SolverTimeout as e:
        print(f"timeout: {e}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (RyserError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
