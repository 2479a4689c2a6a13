"""End-to-end CLI runs: exit codes, reports, schema validity, rechecking."""

import argparse
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from ryser import cli, solver
from ryser.analysis import minimize
from ryser.cli import corpus_generate, factor_prime_power, main
from ryser.hypergraph import PartiteHypergraph, read_rhg, write_rhg
from ryser.report import (REPORT_SCHEMA, cover_certificate, input_entry, make_report,
                          recheck_report, write_json_atomic)


def run(*argv):
    return main([str(a) for a in argv])


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def t4_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    out = d / "t4.rhg"
    assert run("truncate", "--q", 3, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def t3_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "t3.rhg"
    assert run("truncate", "--q", 2, "--out", out) == 0
    return out


def test_field_command(capsys):
    assert run("field", "--p", 2, "--k", 2, "--dump") == 0
    out = capsys.readouterr().out
    assert "GF(4)" in out
    assert "mul table" in out


def test_plane_command(tmp_path, capsys):
    dump = tmp_path / "pg2_2.txt"
    j = tmp_path / "plane.json"
    assert run("plane", "--q", 2, "--dump", dump, "--json", j) == 0
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 7
    assert all(len(l.split()) == 3 for l in lines)
    assert load(j)["points"] == 7
    # non-prime-power order: no plane, Bruck-Ryser verdict instead
    assert run("plane", "--q", 6, "--json", j) == 1
    assert load(j) == {"q": 6, "built": False, "bruck_ryser_excluded": True}
    assert run("plane", "--q", 10, "--json", j) == 1
    assert load(j)["bruck_ryser_excluded"] is False


def test_a_large_prime_order_is_factored_by_trial_division_to_its_root(capsys):
    # dividing by every d up to q took minutes here
    assert factor_prime_power(1_000_000_007) == (1_000_000_007, 1)
    assert factor_prime_power(2**31 - 1) == (2**31 - 1, 1)
    assert run("plane", "--q", 1_000_000_007) == 2
    assert "field order 1000000007 exceeds" in capsys.readouterr().err
    assert run("plane", "--q", 10) == 1
    assert "Bruck-Ryser" in capsys.readouterr().out


def test_orders_past_the_field_bound_are_refused_before_factoring(monkeypatch, capsys, tmp_path):
    # the field order used to be formatted (past the int-to-str limit)
    # or factored (1.6 s for 10000019^2) before the bound refused it
    assert run("field", "--p", 2, "--k", 100000) == 2
    assert "field order 2^100000 exceeds 65536" in capsys.readouterr().err

    def no_factoring(q):
        raise AssertionError(f"factor_prime_power({q}) ran before the order bound")

    monkeypatch.setattr(cli, "factor_prime_power", no_factoring)
    for argv in (["plane", "--q", 100000380000361],
                 ["truncate", "--q", 65537, "--out", tmp_path / "t.rhg"],
                 ["plane", "--q", 65538]):  # not a prime power: no Bruck-Ryser verdict
        assert run(*argv) == 2
        assert f"field order {argv[2]} exceeds 65536" in capsys.readouterr().err


@pytest.mark.parametrize("q", [1, 0, -3])
def test_plane_order_below_two_is_a_config_error(q, tmp_path, capsys):
    j = tmp_path / "plane.json"
    assert run("plane", "--q", q, "--json", j) == 2
    assert "config error: plane order must be at least 2" in capsys.readouterr().err
    assert not j.exists()


def test_verify_report_schema(t4_file, tmp_path):
    rep_path = tmp_path / "verify.json"
    code = run("verify", t4_file, "--tau", "--nu", "--enumerate-min-covers",
               "--json", rep_path)
    assert code == 0
    rep = load(rep_path)
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["overall"] == "pass"
    cover = next(c for c in rep["checks"] if c["name"] == "cover-number")
    assert cover["certificate"]["tau"] == 3
    assert recheck_report(rep, base_dir=".") == []


def test_recheck_flags_certificates_without_input(tmp_path):
    rep_path = tmp_path / "pipe.json"
    assert run("pipeline", "--q", 5, "--f-default", "--out-dir", tmp_path / "arts",
               "--json", rep_path) == 0
    rep = load(rep_path)
    assert rep["inputs"] == []
    ext = next(c for c in rep["checks"] if c["name"] == "extension-cover-number")
    ext["certificate"]["witness"] = ext["certificate"]["witness"][:1]
    problems = recheck_report(rep, base_dir=tmp_path)
    assert any(p.startswith("extension-cover-number:") for p in problems)


def test_recheck_reports_a_certificate_of_an_unknown_kind(t4_file, tmp_path):
    rep_path = tmp_path / "verify.json"
    assert run("verify", t4_file, "--tau", "--json", rep_path) == 0
    rep = load(rep_path)
    cert = rep["checks"][0]["certificate"]
    cert["witness"] = []
    assert recheck_report(rep, base_dir=".") == ["cover-number: witness size differs from tau"]
    # a kind recheck neither replays nor knows to hold nothing used to pass
    # unread (and a list raised TypeError)
    for kind in ("cuver", None, ["cover"]):
        cert["kind"] = kind
        assert recheck_report(rep, base_dir=".") == [
            f"cover-number: certificate kind {kind!r} is not one recheck knows"]


def test_recheck_replays_a_claim_of_intersecting(t4_file, tmp_path):
    # a claim of true was never tested against the input, so it passed on any
    apart, empty = tmp_path / "apart.rhg", tmp_path / "empty.rhg"
    sides = [["a", "b"], ["c", "d"]]
    write_rhg(PartiteHypergraph(sides, [[(0, 0), (1, 0)], [(0, 1), (1, 1)]]), apart)
    write_rhg(PartiteHypergraph(sides, []), empty)
    claim = {"name": "made-up", "status": "pass",
             "certificate": {"kind": "intersecting", "intersecting": True}}
    for path, expect in ((t4_file, []), (apart, ["made-up: input is not intersecting"]),
                         (empty, ["made-up: input is not intersecting"])):
        rep = make_report("verify", {}, [input_entry(path)], [])
        rep["checks"].append(claim)
        rep["overall"] = "pass"
        assert recheck_report(rep, base_dir=".") == expect


def test_recheck_replays_a_matching_number_of_zero_or_one(t4_file, tmp_path):
    # nu = 2 on two disjoint edges, edited down to 1 or 0 with a witness
    # of that size, used to recheck with no problem
    two = tmp_path / "two.rhg"
    write_rhg(PartiteHypergraph([["a", "b"], ["c", "d"]],
                                [[(0, 0), (1, 0)], [(0, 1), (1, 1)]]), two)
    rep_path = tmp_path / "v.json"
    assert run("verify", two, "--nu", "--ratio", "--json", rep_path) == 0
    rep = load(rep_path)
    matching, ratio = (c["certificate"] for c in rep["checks"])
    assert (matching["nu"], matching["witness_edges"], ratio["nu"]) == (2, [0, 1], 2)
    assert recheck_report(rep, base_dir=".") == []
    forged = "nu 1 but edges 0 and 1 of the input are disjoint"
    matching.update(nu=1, witness_edges=[0])
    assert recheck_report(rep, base_dir=".") == [f"matching-number: {forged}"]
    matching.update(nu=0, witness_edges=[])
    assert recheck_report(rep, base_dir=".") == [
        "matching-number: nu 0 but the input has 2 edges"]
    matching.update(nu=2, witness_edges=[0, 1])
    ratio.update(tau=1, nu=1, ratio=1.0)  # tau = (r-1)*nu at r = 2
    assert recheck_report(rep, base_dir=".") == [f"ryser-ratio: {forged}"]
    # an intersecting input keeps its nu = 1
    assert run("verify", t4_file, "--nu", "--ratio", "--json", rep_path) == 0
    assert recheck_report(load(rep_path), base_dir=".") == []


def test_recheck_reports_an_input_that_does_not_load(t4_file, tmp_path):
    # a parse error or a byte that is not UTF-8 raised out of recheck
    broken, binary = tmp_path / "broken.rhg", tmp_path / "binary.rhg"
    broken.write_text("rhg 1 2\ns 0 a\ne 0.0 9.9\n")
    binary.write_bytes(b"rhg 1 2\n\xff\n")
    rep = make_report("verify", {}, [input_entry(p) for p in (broken, binary, t4_file)], [])
    problems = recheck_report(rep)
    assert problems[0] == (f"input {broken} does not load: "
                           "line 3: got 1 side lines, header says 2")
    assert problems[1].startswith(f"input {binary} does not load: {binary} is not UTF-8 text")
    assert len(problems) == 2


def test_verify_ratio(t4_file, tmp_path):
    rep_path = tmp_path / "ratio.json"
    assert run("verify", t4_file, "--ratio", "--json", rep_path) == 0
    rep = load(rep_path)
    cert = rep["checks"][0]["certificate"]
    assert cert["is_ryser_extremal"] is True
    assert (cert["r"], cert["tau"], cert["nu"]) == (4, 3, 1)


@pytest.mark.parametrize("args, message", [
    (["verify", "--ratio"], "Ryser ratio is undefined without edges"),
    (["minimize", "--out", "m.rhg"], "minimization is undefined without edges"),
])
def test_edgeless_input_is_refused_as_empty(args, message, tmp_path, monkeypatch, capsys):
    # it used to be refused as non-uniform
    monkeypatch.chdir(tmp_path)
    write_rhg(PartiteHypergraph([["a", "b"], ["c", "d"]], []), "empty.rhg")
    assert run(args[0], "empty.rhg", *args[1:]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def count_searches(monkeypatch):
    """Lists that grow by one per `_budget_search` call (a first decide
    call on a truncated plane or on a linked plane extension, answered
    by the plane test, makes none), and by the number of such calls
    inside each `verify_ryser_ratio` call that the command line makes."""
    searches = []
    search = solver._budget_search
    monkeypatch.setattr(solver, "_budget_search",
                        lambda *a, **k: searches.append(1) or search(*a, **k))
    ratio_searches = []
    verify = cli.verify_ryser_ratio

    def counted(*args, **kwargs):
        before = len(searches)
        rep = verify(*args, **kwargs)
        ratio_searches.append(len(searches) - before)
        return rep

    monkeypatch.setattr(cli, "verify_ryser_ratio", counted)
    return searches, ratio_searches


def test_verify_tau_then_ratio_searches_tau_once(tmp_path, monkeypatch):
    # tau is the same whatever the hint, so the ratio takes it from the
    # answer the cover-number check kept; an enumeration keeps the answer
    # of the budget runs it makes first
    t6, u = tmp_path / "t6.rhg", tmp_path / "u.rhg"
    assert run("truncate", "--q", 5, "--out", t6) == 0
    assert run("construct", "--base", t6, "--s-edge", 0, "--f-default",
               "--uniformize", "--out", u) == 0
    alone = tmp_path / "alone.json"
    assert run("verify", u, "--ratio", "--json", alone) == 0
    searches, ratio_searches = count_searches(monkeypatch)
    for flag in ("--tau", "--enumerate-min-covers"):
        searches.clear()
        ratio_searches.clear()
        both = tmp_path / "both.json"
        assert run("verify", u, flag, "--ratio", "--json", both) == 0
        checks = {c["name"]: c for c in load(both)["checks"]}
        assert ratio_searches == [0] and searches, flag
        assert checks["cover-number"]["certificate"]["tau"] == 6
        assert checks["ryser-ratio"]["certificate"] == load(alone)["checks"][0]["certificate"]


def test_verify_starts_an_intersecting_uniform_file_at_its_ratio_hint(tmp_path, monkeypatch):
    # a file carries no spec link, so no mirror bound; an intersecting
    # k-uniform input on k sides has nu = 1, and the cover-number check
    # starts at the ratio check's hint k-1 with the certificate a search
    # from the degree-sum bound gives
    t6, u = tmp_path / "t6.rhg", tmp_path / "u.rhg"
    assert run("truncate", "--q", 5, "--out", t6) == 0
    assert run("construct", "--base", t6, "--s-edge", 0, "--f-default",
               "--uniformize", "--out", u) == 0
    budgets = []
    budget_search = solver._budget_search

    def spy(inst, budget, *args, **kwargs):
        budgets.append(budget)
        return budget_search(inst, budget, *args, **kwargs)

    monkeypatch.setattr(solver, "_budget_search", spy)
    rep = tmp_path / "v.json"
    assert run("verify", u, "--tau", "--json", rep) == 0
    assert budgets[0] == 6  # 7 sides
    budgets.clear()
    plain = solver.cover_number(read_rhg(u))
    assert budgets[0] < 6
    assert load(rep)["checks"][0]["certificate"] == cover_certificate(plain)


def test_verify_timeout_exit_code(t4_file, tmp_path):
    rep_path = tmp_path / "t.json"
    code = run("verify", t4_file, "--tau", "--timeout", 0, "--json", rep_path)
    assert code == 3
    assert load(rep_path)["overall"] == "timeout"


def test_timeout_env_override(t4_file, monkeypatch):
    monkeypatch.setenv("RYSER_TIMEOUT_SECS", "0")
    assert run("verify", t4_file, "--tau") == 3
    monkeypatch.setenv("RYSER_TIMEOUT_SECS", "60")
    assert run("verify", t4_file, "--tau") == 0


@pytest.mark.parametrize("value", ["nan", "-5", "-inf"])
def test_a_budget_no_clock_can_meet_is_a_config_error(t4_file, tmp_path, monkeypatch, capsys,
                                                      value):
    # NaN compares false with every time, so it would disable the
    # deadline; a negative budget would time out before any search
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "timeout": float(value)}))
    rep_path = tmp_path / "rep.json"
    for argv, env in ((("verify", t4_file, "--tau", f"--timeout={value}"), None),
                      (("verify", t4_file, "--tau"), value),
                      (("pipeline", "--config", cfg), None)):
        if env is not None:
            monkeypatch.setenv("RYSER_TIMEOUT_SECS", env)
        assert run(*argv, "--json", rep_path) == 2, (argv, env)
        assert "timeout must be a non-negative number" in capsys.readouterr().err
        monkeypatch.delenv("RYSER_TIMEOUT_SECS", raising=False)
    assert not rep_path.exists()
    # 0 still times out at once, and inf is no limit
    assert run("verify", t4_file, "--tau", "--timeout", "0") == 3
    assert run("verify", t4_file, "--tau", "--timeout", "inf") == 0


@pytest.mark.parametrize("value", ["-inf", "-1e3", "-5"])
def test_a_negative_budget_reads_alike_in_both_spellings(t4_file, capsys, value):
    # argparse takes "-inf" or "-1e3" after a flag for an option unless
    # it is glued on with "="; both spellings must reach the budget check
    for argv in (("verify", t4_file, "--tau"), ("pipeline", "--q", "3", "--f-default")):
        for spelling in (("--timeout", value), (f"--timeout={value}",), ("--time", value)):
            assert run(*argv, *spelling) == 2, (argv, spelling)
            err = capsys.readouterr().err
            assert f"timeout must be a non-negative number of seconds, got {float(value)}" in err


def test_a_negative_delta_reads_alike_in_both_spellings(capsys):
    for spelling in (("--delta", "-inf"), ("--delta=-inf",), ("--del", "-inf")):
        assert run("profiles", "--r", "25", *spelling) == 2
        assert "delta must be a finite number, got -inf" in capsys.readouterr().err


def test_a_signed_value_after_a_space_is_read_as_a_value(t4_file, tmp_path, capsys):
    # "--t" abbreviates --timeout in pipeline, so -inf reaches the budget check
    assert run("pipeline", "--q", 3, "--f-default", "--t", "-inf") == 2
    assert "timeout must be a non-negative number of seconds, got -inf" in capsys.readouterr().err
    # verify also has --tau, so there "--t" is ambiguous
    with pytest.raises(SystemExit) as e:
        run("verify", t4_file, "--t", "-inf")
    assert e.value.code == 2
    assert "ambiguous option: --t" in capsys.readouterr().err
    # an integer option takes -inf as its value, and its type refuses it
    with pytest.raises(SystemExit) as e:
        run("construct", "--base", t4_file, "--s-edge", "-inf", "--f-default",
            "--out", tmp_path / "h.rhg")
    assert e.value.code == 2
    assert "expected a decimal integer, got '-inf'" in capsys.readouterr().err
    spaced, glued = tmp_path / "spaced.json", tmp_path / "glued.json"
    assert run("profiles", "--r", 25, "--de", -1, "--json", spaced) == 0
    assert run("profiles", "--r", 25, "--delta=-1", "--json", glued) == 0
    assert spaced.read_bytes() == glued.read_bytes()


def test_every_subcommand_reads_signed_numbers_as_values():
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert sub.choices
    for name, p in sub.choices.items():
        assert p._negative_number_matcher is cli._SIGNED_NUMBER, name
    for token in ("-1", "-1.5", "-.5", "-1.", "-1e3", "-2.5E-3", "-inf", "-Infinity", "-nan"):
        assert cli._SIGNED_NUMBER.match(token), token
        float(token)
    for token in ("-", "-h", "-e3", "-1x", "-info", "--inf", "--timeout"):
        assert not cli._SIGNED_NUMBER.match(token), token


def strict_json(path):
    """The JSON value in the file at path, refusing NaN and infinities,
    which are not JSON numbers."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def test_unlimited_budget_report_is_json(t4_file, tmp_path):
    rep_path = tmp_path / "v.json"
    assert run("verify", t4_file, "--tau", "--timeout", "inf", "--json", rep_path) == 0
    assert strict_json(rep_path)["parameters"]["timeout"] == "inf"


def test_non_json_number_is_not_written(tmp_path):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json_atomic(tmp_path / "x.json", {"x": value})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore:uniformity r=4")
def test_construct_flow(t4_file, tmp_path):
    h_path = tmp_path / "h.rhg"
    rep_path = tmp_path / "construct.json"
    code = run("construct", "--base", t4_file, "--s-edge", 0, "--f-default",
               "--out", h_path, "--report", rep_path)
    assert code == 0
    rep = load(rep_path)
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["spec"]["f_edges"]
    assert rep["checks"][0]["status"] == "pass"
    # verify the built file
    v_path = tmp_path / "v.json"
    assert run("verify", h_path, "--tau", "--json", v_path) == 0
    assert load(v_path)["checks"][0]["certificate"]["tau"] == 4

    # maximal-check against the construct report used as spec
    m_path = tmp_path / "max.json"
    code = run("maximal-check", h_path, "--spec", rep_path, "--report", m_path)
    assert code == 0  # r=4: classification recorded, assertion skipped
    mrep = load(m_path)
    cls = next(c for c in mrep["checks"] if c["name"] == "addable-edge-classification")
    assert cls["status"] == "skipped"


def test_construct_uniformize_and_minimize(t4_file, tmp_path):
    u_path = tmp_path / "u.rhg"
    assert run("construct", "--base", t4_file, "--s-edge", 0, "--f-default",
               "--uniformize", "--out", u_path) == 0
    m_path = tmp_path / "m.rhg"
    rep_path = tmp_path / "min.json"
    assert run("minimize", u_path, "--out", m_path, "--report", rep_path) == 0
    rep = load(rep_path)
    jsonschema.validate(rep, REPORT_SCHEMA)
    cert = rep["checks"][0]["certificate"]
    assert cert["target_tau"] == 4
    assert all(k["tau_without"] == 3 for k in cert["kept"])
    assert run("verify", m_path, "--tau") == 0


def test_minimize_star_keeps_its_last_edge(tmp_path):
    # the last edge's trial leaves no edge, which the empty set covers
    star = PartiteHypergraph([["a"], ["b", "c"]], [((0, 0), (1, 0)), ((0, 0), (1, 1))])
    path = tmp_path / "star.rhg"
    write_rhg(star, path)
    trace = minimize(star)
    assert [d.original_index for d in trace.deleted] == [0]
    assert [(k.original_index, k.cert.tau, k.cert.witness) for k in trace.kept] == [(1, 0, ())]
    rep_path = tmp_path / "min.json"
    assert run("minimize", path, "--report", rep_path) == 0
    rep = load(rep_path)
    cert = rep["checks"][0]["certificate"]
    assert [k["original_index"] for k in cert["kept"]] == [1]
    assert recheck_report(rep, base_dir=".") == []


def test_recheck_replays_minimization(t4_file, tmp_path):
    u_path = tmp_path / "u.rhg"
    assert run("construct", "--base", t4_file, "--s-edge", 0, "--f-default",
               "--uniformize", "--out", u_path) == 0
    rep_path = tmp_path / "min.json"
    assert run("minimize", u_path, "--report", rep_path) == 0
    rep = load(rep_path)
    assert recheck_report(rep, base_dir=".") == []
    cert = rep["checks"][0]["certificate"]
    assert cert["deleted"] and len(cert["kept"]) > 1

    def problems_after(change):
        bad = json.loads(json.dumps(rep))
        change(bad["checks"][0]["certificate"])
        return recheck_report(bad, base_dir=".")

    def cut_witness(c):
        c["kept"][0]["witness_without"] = c["kept"][0]["witness_without"][:1]

    def borrow_witness(c):
        # another kept edge's witness misses that edge, not this one
        c["kept"][0]["witness_without"] = c["kept"][1]["witness_without"]

    def keep_a_deleted_edge(c):
        c["kept"].append(dict(c["kept"][0], original_index=c["deleted"].pop()["original_index"]))

    def drop_a_kept_edge(c):
        c["kept"].pop()

    for change, expect in ((cut_witness, "witness has 1 vertices, expected 3"),
                           (borrow_witness, "does not cover"),
                           (keep_a_deleted_edge, "label differs"),
                           (drop_a_kept_edge, "do not partition")):
        problems = problems_after(change)
        assert any(p.startswith("minimality-reduction:") and expect in p
                   for p in problems), (change.__name__, problems)
    rep["inputs"] = []
    assert any("no input hypergraph" in p for p in recheck_report(rep, base_dir="."))


def _set_first_kept(field, value):
    def change(cert):
        cert["kept"][0][field] = value
    return change


@pytest.mark.parametrize("kind, change, expect", [
    ("cover", lambda c: c["witness"].__setitem__(0, "0.x"), "names no vertex set"),
    ("cover", lambda c: c["witness"].__setitem__(0, "9.0"), "names no vertex set"),
    ("cover", lambda c: c["witness"].__setitem__(0, "-1.0"), "names no vertex set"),
    ("cover", lambda c: c["all_min_covers"][0].__setitem__(0, "0.01"), "names no vertex set"),
    ("matching", lambda c: c.__setitem__("witness_edges", [99]), "not edge indices"),
    ("matching", lambda c: c.__setitem__("witness_edges", [-1]), "not edge indices"),
    ("intersecting", lambda c: c.__setitem__("disjoint_pair", [0, 99]), "not two edge indices"),
    ("intersecting", lambda c: c.__setitem__("disjoint_pair", [-1, 0]), "not two edge indices"),
    ("minimization", _set_first_kept("original_index", 99), "do not partition"),
    ("minimization", _set_first_kept("original_index", -1), "do not partition"),
    ("minimization", _set_first_kept("original_index", True), "do not partition"),
    ("minimization", _set_first_kept("witness_without", ["0.x"]), "names no vertex set"),
    ("cover", lambda c: c.pop("tau"), "cover certificate lacks field 'tau'"),
    ("cover", lambda c: c.__setitem__("all_min_covers", None), "'all_min_covers' is None"),
    ("matching", lambda c: c.__setitem__("witness_edges", 5), "'witness_edges' is 5, not of type list"),
    ("matching", lambda c: c.__setitem__("witness_edges", None), "'witness_edges' is None"),
    ("matching", lambda c: c.__setitem__("nu", "1"), "'nu' is '1', not of type int"),
    ("minimization", lambda c: c.__setitem__("target_tau", None), "'target_tau' is None"),
    ("minimization", lambda c: c["kept"][0].pop("label"), "kept entry"),
], ids=["cover-unparsed", "cover-no-side", "cover-negative", "cover-noncanonical",
        "matching-past-end", "matching-negative", "intersecting-past-end",
        "intersecting-negative", "minimization-past-end", "minimization-negative",
        "minimization-bool", "minimization-unparsed", "cover-no-tau", "cover-null-enumeration",
        "matching-int-witness", "matching-null-witness", "matching-string-nu",
        "minimization-null-target", "minimization-entry-without-label"])
def test_recheck_reports_malformed_certificates(t4_file, tmp_path, kind, change, expect):
    # a bad index or vertex name is a problem, not an exception
    rep_path = tmp_path / "rep.json"
    if kind == "minimization":
        assert run("minimize", t4_file, "--report", rep_path) == 0
    else:
        assert run("verify", t4_file, "--tau", "--nu", "--enumerate-min-covers",
                   "--json", rep_path) == 0
    rep = load(rep_path)
    rep["checks"].append({"name": "made-up", "status": "pass", "certificate": {
        "kind": "intersecting", "intersecting": False, "disjoint_pair": [0, 1]}})
    # the made-up pair intersects, which is reported as such
    assert recheck_report(rep, base_dir=".") == ["made-up: claimed disjoint pair intersects"]
    check = next(c for c in rep["checks"] if c["certificate"]["kind"] == kind)
    change(check["certificate"])
    problems = recheck_report(rep, base_dir=".")
    assert any(p.startswith(check["name"] + ":") and expect in p for p in problems), problems


@pytest.fixture(scope="module")
def tau_report(t4_file, tmp_path_factory):
    rep_path = tmp_path_factory.mktemp("tau") / "v.json"
    assert run("verify", t4_file, "--tau", "--json", rep_path) == 0
    rep = load(rep_path)
    assert rep["overall"] == "pass" and recheck_report(rep, base_dir=".") == []
    return rep


def test_recheck_reports_a_status_outside_the_schema(tau_report):
    # recheck replayed only "pass" checks, so this one went unchecked
    rep = json.loads(json.dumps(tau_report))
    check = next(c for c in rep["checks"] if c["name"] == "cover-number")
    check["status"] = "bogus"
    check["certificate"]["witness"] = []
    problems = recheck_report(rep, base_dir=".")
    assert ("cover-number: status 'bogus' is not one of pass, fail, skipped, timeout"
            in problems), problems


def test_recheck_reports_an_overall_the_checks_do_not_give(tau_report):
    rep = json.loads(json.dumps(tau_report))
    next(c for c in rep["checks"] if c["name"] == "cover-number")["status"] = "fail"
    assert recheck_report(rep, base_dir=".") == [
        "overall 'pass' differs from 'fail', that of the checks"]
    rep["overall"] = "fail"
    assert recheck_report(rep, base_dir=".") == []


@pytest.fixture(scope="module")
def construct_report(t4_file, tmp_path_factory):
    d = tmp_path_factory.mktemp("construct")
    rep_path = d / "c.json"
    assert run("construct", "--base", t4_file, "--s-edge", 0, "--f-default",
               "--out", d / "h.rhg", "--json", rep_path) == 0
    rep = load(rep_path)
    assert recheck_report(rep, base_dir=".") == []
    return rep


def _set_field(key, value):
    def change(rep):
        rep[key] = value
        return rep
    return change


def _drop_first(part, field):
    def change(rep):
        del rep[part][0][field]
        return rep
    return change


@pytest.mark.parametrize("change, expect", [
    (_set_field("spec", [0, 1]), "report field 'spec' is [0, 1], not an object"),
    (_set_field("spec", "0"), "report field 'spec' is '0', not an object"),
    (_drop_first("inputs", "sha256"), "lacks a string path or sha256"),
    (_set_field("inputs", "t4.rhg"), "report field 'inputs' is 't4.rhg', not a list"),
    (lambda rep: rep["inputs"][0].__setitem__("path", os.curdir) or rep,
     f"input {os.curdir} missing or not a file"),
    (_set_field("checks", None), "report field 'checks' is None, not a list"),
    (_drop_first("checks", "status"), "lacks a string name or status"),
    (_drop_first("checks", "name"), "lacks a string name or status"),
    (lambda rep: [rep], "report is a list, not an object"),
], ids=["spec-list", "spec-string", "input-without-sha256", "inputs-string",
        "input-directory", "checks-null",
        "check-without-status", "check-without-name", "report-list"])
def test_recheck_reports_a_malformed_envelope(construct_report, change, expect):
    # each raised before: AttributeError, KeyError or TypeError
    problems = recheck_report(change(json.loads(json.dumps(construct_report))), base_dir=".")
    assert any(expect in p for p in problems), problems


@pytest.fixture(scope="module")
def ratio_report(t4_extension, tmp_path_factory):
    rep_path = tmp_path_factory.mktemp("ratio") / "v.json"
    assert run("verify", t4_extension[2], "--ratio", "--json", rep_path) == 0
    rep = load(rep_path)
    cert = rep["checks"][0]["certificate"]
    assert (cert["r"], cert["tau"], cert["nu"], cert["ratio"]) == (5, 4, 1, 4.0)
    assert recheck_report(rep, base_dir=".") == []
    return rep


@pytest.mark.parametrize("fields, expect", [
    ({"ratio": 99.0}, "ryser-ratio: ratio 99.0 differs from tau/nu = 4.0"),
    ({"tau": 5, "is_ryser_extremal": False},
     "ryser-ratio: passes with a ratio that is not Ryser-extremal"),
    ({"tau": 0, "nu": 0}, "ryser-ratio: nu 0 is below 1"),
    ({"r": 6, "tau": 5, "ratio": 5.0}, "ryser-ratio: r 6 differs from the input's 5 sides"),
    ({"ratio": 4}, "ryser-ratio: ratio certificate field 'ratio' is 4, not of type float"),
], ids=["ratio", "not-extremal", "nu-zero", "r-not-sides", "ratio-int"])
def test_recheck_reports_a_forged_ratio_certificate(ratio_report, fields, expect):
    rep = json.loads(json.dumps(ratio_report))
    rep["checks"][0]["certificate"].update(fields)
    problems = recheck_report(rep, base_dir=".")
    assert expect in problems, problems


def test_construct_explicit_and_profile(t4_file, tmp_path):
    rep = tmp_path / "r.json"
    out = tmp_path / "x.rhg"
    code = run("construct", "--base", t4_file, "--s-edge", 0,
               "--f-edges", "1:0,2:0,3:0,4:0", "--out", out, "--json", rep)
    assert code == 0
    # strict profile is impossible at r=4
    code = run("construct", "--base", t4_file, "--s-edge", 0,
               "--profile", "1", "--out", out)
    assert code == 2
    code = run("construct", "--base", t4_file, "--s-edge", 0,
               "--profile", "1", "--relaxed-profile", "--out", out, "--json", rep)
    assert code == 0


def test_fingerprint_and_iso(t4_file, tmp_path, capsys):
    assert run("fingerprint", t4_file) == 0
    assert capsys.readouterr().out.strip() == "3^12"
    t4b = tmp_path / "t4b.rhg"
    assert run("truncate", "--q", 3, "--vertex", 2, "--out", t4b) == 0
    assert run("iso", t4_file, t4b) == 0
    t3 = tmp_path / "t3.rhg"
    assert run("truncate", "--q", 2, "--out", t3) == 0
    assert run("iso", t4_file, t3) == 1


def test_profiles_command(tmp_path):
    j = tmp_path / "p.json"
    assert run("profiles", "--r", 26, "--t", 1, "--json", j) == 0
    assert load(j)["count"] == 2


@pytest.mark.parametrize("argv", [("--t", "0"), ("--t", "-3"), ("--delta", "0.6")])
def test_profiles_with_t_below_one_name_that_reason(tmp_path, capsys, argv):
    # t = int(26**-0.1) = 0 for delta 0.6; the range [t+3, 5] is not empty
    j = tmp_path / "p.json"
    assert run("profiles", "--r", 26, *argv, "--json", j) == 0
    note = load(j)["note"]
    assert "degenerate" in note and "t >= 1" in note and "no values" not in note
    assert note in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("--r", "25", "--delta", "nan"),
    ("--r", "25", "--delta=-1e308"),   # r^(0.5-delta) overflows
    ("--r", "-4", "--delta", "0.1"),   # a complex power
    ("--r", "-4", "--t", "1"),
    ("--r", "25", "--delta", "inf"),
])
def test_profiles_rejects_inputs_with_no_count(tmp_path, capsys, argv):
    j = tmp_path / "p.json"
    assert run("profiles", *argv, "--json", j) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not j.exists()


@pytest.mark.filterwarnings("ignore:uniformity r=4")
def test_pipeline_q3_all_checks(tmp_path):
    rep_path = tmp_path / "pipe.json"
    code = run("pipeline", "--q", 3, "--f-default", "--all-checks",
               "--out-dir", tmp_path / "arts", "--json", rep_path)
    assert code == 0
    rep = load(rep_path)
    jsonschema.validate(rep, REPORT_SCHEMA)
    ext = next(c for c in rep["checks"] if c["name"] == "extension-cover-number")
    assert ext["certificate"]["tau"] == 4
    assert (tmp_path / "arts" / "t4.rhg").exists()
    assert (tmp_path / "arts" / "ext_q3_default_uniform.rhg").exists()
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["minimality-reduction"] == "pass"
    assert names["addable-edge-classification"] == "skipped"  # r=4
    # the pipeline keeps counts only, under a kind of their own that
    # recheck has nothing to replay in
    summary = next(c for c in rep["checks"] if c["name"] == "minimality-reduction")
    assert summary["certificate"] == {"kind": "minimization-counts", "deleted": 4, "kept": 12}
    assert not [p for p in recheck_report(rep) if p.startswith("minimality-reduction")]


def test_pipeline_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "f": "default"}))
    assert run("pipeline", "--config", cfg) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run("pipeline", "--config", bad) == 2
    unknown = tmp_path / "unk.json"
    unknown.write_text(json.dumps({"q": 3, "mystery": 1}))
    assert run("pipeline", "--config", unknown) == 2
    for bad_f in ({"f": "sideways"}, {"f": "edges"}, {"f": "profile"}):
        cfg.write_text(json.dumps({"q": 3, **bad_f}))
        assert run("pipeline", "--config", cfg) == 2


def test_pipeline_f_default_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "f": "profile", "profile": "1",
                               "relaxed_profile": True}))
    rep = tmp_path / "p.json"
    assert run("pipeline", "--config", cfg, "--f-default", "--json", rep) == 0
    assert load(rep)["parameters"]["f_mode"] == "default"


def test_pipeline_config_has_no_jobs_key(tmp_path, capsys):
    # --jobs is a pipeline flag only; a config naming jobs is refused
    # whatever the flag says
    cfg = tmp_path / "cfg.json"
    for jobs in (1, 0):
        cfg.write_text(json.dumps({"q": 3, "f": "default", "jobs": jobs}))
        for flag in ((), ("--jobs", 1)):
            assert run("pipeline", "--config", cfg, *flag) == 2
            assert "unknown config keys: ['jobs']" in capsys.readouterr().err
    cfg.write_text(json.dumps({"q": 3, "f": "default"}))
    assert run("pipeline", "--config", cfg, "--jobs", 1) == 0


def test_jobs_below_one_rejected(tmp_path, capsys):
    for jobs in (0, -1):
        with pytest.raises(SystemExit) as e:
            run("pipeline", "--q", 3, "--out-dir", tmp_path / "arts", "--jobs", jobs)
        assert e.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "arts").exists()


def test_retired_flags_are_unrecognized(t4_file, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base": str(t4_file), "s_edge": 0, "f_edges": [1, 2, 3, 4]}))
    out = tmp_path / "x.rhg"
    construct = ("construct", "--base", t4_file, "--s-edge", 0, "--f-default", "--out", out)
    commands = (
        (*construct, "--skip-cover-check"),
        (*construct, "--jobs", 2),
        ("verify", t4_file, "--tau", "--jobs", 2),
        ("minimize", t4_file, "--jobs", 2),
        ("maximal-check", t4_file, "--spec", spec, "--jobs", 2),
    )
    for argv in commands:
        with pytest.raises(SystemExit) as e:
            run(*argv)
        assert e.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert not out.exists()


def without_wall_times(report):
    for check in report["checks"]:
        del check["wall_time_s"]
    return report


def test_pipeline_searches_in_process_whatever_jobs(tmp_path, monkeypatch):
    # Every search runs in the calling process, so a run with --jobs 2
    # imports no process-pool module and writes what --jobs 1 writes.
    argv = ["pipeline", "--q", "4", "--f-default", "--all-checks",
            "--out-dir", "out", "--json", "rep.json"]
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    script = (
        "import sys\n"
        "import ryser.cli\n"
        f"code = ryser.cli.main({argv + ['--jobs', '2']!r})\n"
        "pools = [m for m in sys.modules\n"
        "         if m.startswith(('multiprocessing', 'concurrent.futures'))]\n"
        "print(code, pools)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], cwd=two, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"
    monkeypatch.chdir(one)
    assert main(argv + ["--jobs", "1"]) == 0
    names = sorted(p.name for p in (one / "out").iterdir())
    assert names == sorted(p.name for p in (two / "out").iterdir())
    for name in names:
        assert (one / "out" / name).read_bytes() == (two / "out" / name).read_bytes()
    assert without_wall_times(load(one / "rep.json")) == without_wall_times(load(two / "rep.json"))


# Every subcommand's option strings.  A flag added or removed is an edit
# here as well.
OPTIONS = {
    "field": {"--p", "--k", "--dump", "--json"},
    "plane": {"--q", "--dump", "--json"},
    "truncate": {"--q", "--vertex", "--out", "--json"},
    "construct": {"--base", "--s-edge", "--f-default", "--f-edges", "--profile",
                  "--relaxed-profile", "--uniformize", "--out", "--report", "--json",
                  "--timeout"},
    "verify": {"--tau", "--nu", "--enumerate-min-covers", "--ratio", "--json", "--timeout"},
    "minimize": {"--out", "--order", "--report", "--json", "--timeout"},
    "maximal-check": {"--spec", "--report", "--json", "--timeout"},
    "fingerprint": {"--json"},
    "iso": {"--json"},
    "profiles": {"--r", "--delta", "--t", "--json"},
    "pipeline": {"--config", "--q", "--vertex", "--s-edge", "--f-default", "--f-edges",
                 "--profile", "--relaxed-profile", "--all-checks", "--minimize",
                 "--maximal-check", "--out-dir", "--jobs", "--json", "--timeout"},
    "corpus": {"--out", "--json"},
}


def test_each_subcommand_offers_exactly_its_options(tmp_path):
    import argparse

    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    offers = {name: set(p._option_string_actions) - {"-h", "--help"}
              for name, p in commands.items()}
    assert offers == OPTIONS
    for flag in ("--jobs", "--timeout"):
        with pytest.raises(SystemExit) as e:
            run("corpus", "--out", tmp_path / "corpus", flag, 2)
        assert e.value.code == 2
    assert not (tmp_path / "corpus").exists()


def test_maximal_check_q4_full_pass(tmp_path):
    t5 = tmp_path / "t5.rhg"
    assert run("truncate", "--q", 4, "--out", t5) == 0
    h = tmp_path / "h5.rhg"
    spec = tmp_path / "spec.json"
    assert run("construct", "--base", t5, "--s-edge", 0, "--f-default",
               "--out", h, "--report", spec) == 0
    rep = tmp_path / "max.json"
    assert run("maximal-check", h, "--spec", spec, "--report", rep) == 0
    mrep = load(rep)
    jsonschema.validate(mrep, REPORT_SCHEMA)
    names = {c["name"]: c["status"] for c in mrep["checks"]}
    assert names["addable-edge-classification"] == "pass"  # r=5: asserted
    closure = next(c for c in mrep["checks"]
                   if c["name"] == "maximal-closure-description")
    assert len(closure["certificate"]["families"]) == 10
    assert recheck_report(mrep, base_dir=".") == []


def test_failing_check_exits_one(tmp_path):
    # a non-extremal uniform input: ratio check fails -> exit 1
    from ryser.hypergraph import PartiteHypergraph, write_rhg

    h = PartiteHypergraph(
        [["a"], ["b"], ["c"]],
        [[(0, 0), (1, 0), (2, 0)]],  # tau=1, nu=1: not (r-1)*nu for r=3
    )
    p = tmp_path / "two.rhg"
    write_rhg(h, p)
    rep = tmp_path / "r.json"
    assert run("verify", p, "--ratio", "--json", rep) == 1
    assert load(rep)["overall"] == "fail"


def test_pipeline_q4_under_a_minute(tmp_path):
    import time

    t0 = time.monotonic()
    assert run("pipeline", "--q", 4, "--f-default", "--all-checks",
               "--json", tmp_path / "p.json") == 0
    assert time.monotonic() - t0 < 60
    # a pipeline lists no inputs: every certificate it could replay is a
    # problem, and none of those with nothing to replay
    problems = recheck_report(load(tmp_path / "p.json"))
    assert problems and all("no input hypergraph" in p for p in problems)
    assert not [p for p in problems if p.startswith(("minimality-reduction",
                                                     "addable-edge-classification"))]


def test_usage_errors(tmp_path):
    assert run("verify", tmp_path / "missing.rhg") == 2
    with pytest.raises(SystemExit) as e:
        run("construct", "--base", "x.rhg", "--out", "y.rhg", "--s-edge", 0)
    assert e.value.code == 2  # missing an F-selection flag
    assert run("pipeline") == 2  # no q anywhere


def test_corpus_into_a_path_under_a_file_is_an_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run("corpus", "--out", blocker / "corpus") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_corpus_roundtrip(tmp_path):
    from ryser.hypergraph import read_rhg
    from ryser.report import sha256_file

    d = tmp_path / "corpus"
    files = corpus_generate(d)
    assert "t4.rhg" in files and "pairs_r26_x4.rhg" in files
    for name in files:
        assert (d / name).exists()
        expected = load(d / (name + ".expected.json"))
        # expected reports pin the artifact bytes and shape
        assert expected["sha256"] == sha256_file(d / name)
        h = read_rhg(d / name)
        assert h.num_sides == expected["num_sides"]
        assert h.num_edges == expected["num_edges"]
        assert expected["intersecting"] is True


def test_check_records_a_timeout_and_passes_other_errors_on():
    from ryser.errors import SolverTimeout
    from ryser.report import Check

    with Check("search") as c:
        raise SolverTimeout("out of time")
    assert (c.status, c.detail) == ("timeout", "out of time")
    with pytest.raises(ValueError):
        with Check("other"):
            raise ValueError("bad")


# the checks of each subcommand that run a search; construct's on the
# q=2 truncation, whose cover uniqueness the counting argument leaves to
# the search, while on the q=3 plane base-cover-uniqueness searches nothing
SEARCHING = {
    "construct": {"construction-preconditions"},
    "minimize": {"minimality-reduction"},
    "maximal-check": {"addable-edge-classification"},
    "pipeline": {"base-properties", "extension-cover-number",
                 "ryser-ratio", "minimality-reduction", "addable-edge-classification"},
}


@pytest.fixture(scope="module")
def t4_extension(t4_file, tmp_path_factory):
    """An extension of the q=3 truncation, its construct report as spec,
    and its uniformized form."""
    d = tmp_path_factory.mktemp("ext")
    h, spec, u = d / "h.rhg", d / "spec.json", d / "u.rhg"
    assert run("construct", "--base", t4_file, "--s-edge", 0, "--f-default",
               "--out", h, "--report", spec) == 0
    assert run("construct", "--base", t4_file, "--s-edge", 0, "--f-default",
               "--uniformize", "--out", u) == 0
    return h, spec, u


@pytest.mark.filterwarnings("ignore:uniformity r=4")
@pytest.mark.parametrize("command", sorted(SEARCHING))
def test_timeouts_in_every_searching_subcommand(t3_file, t4_extension, tmp_path, command):
    h, spec, u = t4_extension
    out = tmp_path / "out.rhg"
    argv = {
        "construct": ("construct", "--base", t3_file, "--s-edge", 0,
                      "--f-default", "--out", out),
        "minimize": ("minimize", u, "--out", out),
        "maximal-check": ("maximal-check", h, "--spec", spec),
        "pipeline": ("pipeline", "--q", 3, "--f-default", "--all-checks",
                     "--out-dir", tmp_path / "arts"),
    }[command]
    rep_path = tmp_path / "rep.json"
    assert run(*argv, "--timeout", 0, "--json", rep_path) == 3
    rep = load(rep_path)
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["overall"] == "timeout"
    statuses = {c["name"]: c["status"] for c in rep["checks"]}
    assert {name for name, s in statuses.items() if s == "timeout"} == SEARCHING[command]
    assert all(s == "pass" for name, s in statuses.items() if name not in SEARCHING[command])
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:uniformity r=4")
def test_maximal_check_times_out_in_the_enumeration(t4_extension, tmp_path,
                                                     clock_jumps_after_cover_check):
    h, spec, _ = t4_extension
    rep_path = tmp_path / "rep.json"
    assert run("maximal-check", h, "--spec", spec, "--timeout", 60, "--json", rep_path) == 3
    statuses = {c["name"]: c["status"] for c in load(rep_path)["checks"]}
    assert statuses == {"input-matches-spec": "pass", "addable-edge-classification": "timeout"}


def test_artifact_digests_match_the_files(t4_file, tmp_path):
    from ryser.report import sha256_file

    u = tmp_path / "u.rhg"
    commands = (
        ("truncate", "--q", 3, "--out", tmp_path / "t.rhg"),
        ("construct", "--base", t4_file, "--s-edge", 0, "--f-default", "--uniformize",
         "--out", u),
        ("minimize", u, "--out", tmp_path / "m.rhg"),
        ("pipeline", "--q", 3, "--f-default", "--minimize", "--out-dir", tmp_path / "arts"),
    )
    for i, argv in enumerate(commands):
        rep_path = tmp_path / f"rep{i}.json"
        assert run(*argv, "--json", rep_path) == 0
        artifacts = load(rep_path)["artifacts"]
        assert len(artifacts) == (4 if argv[0] == "pipeline" else 1)
        for a in artifacts:
            assert a["sha256"] == sha256_file(a["path"]), (argv[0], a["path"])


@pytest.mark.parametrize("config", [
    {"q": "x"},
    {"q": 3, "jobs": "two"},
    {"q": 3, "timeout": "soon"},
    {"q": 3, "vertex": "1"},
    {"q": 3, "s_edge": 99},
    # list entries must be JSON integers, not truncated to one
    {"q": 3, "f": "edges", "f_edges": [1.5, 2, 3, 4]},
    {"q": 3, "f": "edges", "f_edges": [True, 2, 3, 4]},
    {"q": 3, "f": "edges", "f_edges": ["1", 2, 3, 4]},
    {"q": 3, "f": "profile", "profile": [1.0]},
    {"q": 3, "f": "profile", "profile": "1.5"},
])
def test_malformed_pipeline_config_is_a_config_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run("pipeline", "--config", cfg, "--out-dir", tmp_path / "arts") == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "arts").exists()


@pytest.mark.parametrize("selection", [("--f-default",), ("--profile", "1", "--relaxed-profile")])
def test_construct_anchor_outside_the_edges_is_a_config_error(t4_file, tmp_path, capsys,
                                                               selection):
    out = tmp_path / "x.rhg"
    assert run("construct", "--base", t4_file, "--s-edge", 99, *selection, "--out", out) == 2
    assert "s_edge 99 is not an edge index" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fields", [
    {"s_edge": "x"},
    {"s_edge": 99},
    {"s_edge": -1},
    {"f_edges": [99, 2, 3, 4]},
    {"f_edges": [-1, 2, 3, 4]},
    {"f_edges": [1, 2, 3]},
    {"f_edges": ["a", 2, 3, 4]},
    {"f_edges": "1,2,3,4"},
    # numbers must be JSON integers, not truncated to one
    {"s_edge": 0.9},
    {"s_edge": True},
    {"s_edge": "0"},
    {"f_edges": [1.5, 2, 3, 4]},
    {"f_edges": [True, 2, 3, 4]},
    # base must be a path string (these raised TypeError)
    {"base": 5},
    {"base": None},
    {"base": ["t.rhg"]},
])
def test_malformed_maximal_check_spec_is_a_config_error(t4_file, t4_extension, tmp_path,
                                                        capsys, fields):
    h, _, _ = t4_extension
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base": str(t4_file), "s_edge": 0, "f_edges": [1, 2, 3, 4],
                                **fields}))
    report = tmp_path / "rep.json"
    assert run("maximal-check", h, "--spec", spec, "--json", report) == 2
    assert "config error" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.filterwarnings("ignore:uniformity r=4")
def test_a_construct_report_in_a_subdirectory_reads_back_as_spec(tmp_path, monkeypatch):
    # the spec's base was written as given, relative to the working
    # directory, and read relative to the report's: smoke/smoke/t4.rhg
    monkeypatch.chdir(tmp_path)
    os.mkdir("smoke")
    assert run("truncate", "--q", 3, "--out", "smoke/t4.rhg") == 0
    assert run("construct", "--base", "smoke/t4.rhg", "--s-edge", 0, "--f-default",
               "--out", "smoke/h.rhg", "--report", "smoke/c.json") == 0
    assert load("smoke/c.json")["spec"]["base"] == "t4.rhg"
    assert run("maximal-check", "smoke/h.rhg", "--spec", "smoke/c.json",
               "--report", "smoke/m.json") == 0
    assert recheck_report(load("smoke/m.json")) == []


@pytest.mark.parametrize("command", ["verify", "pipeline", "maximal-check"])
def test_an_input_that_is_not_utf8_is_one_error_line(t4_extension, tmp_path, capsys, command):
    # each raised UnicodeDecodeError, a traceback and exit 1
    bad = tmp_path / "bad"
    bad.write_bytes(b'rhg 1 2\n\xff\n' if command == "verify" else b'{"q": "\xff"}')
    argv = {
        "verify": ("verify", bad, "--tau"),
        "pipeline": ("pipeline", "--config", bad, "--out-dir", tmp_path / "arts"),
        "maximal-check": ("maximal-check", t4_extension[0], "--spec", bad),
    }[command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "can't decode byte 0xff" in err, err
    assert not (tmp_path / "arts").exists()


@pytest.mark.parametrize("selection", [
    ("--f-edges", "1:1_0,2:2,3:3,4:4"),
    ("--f-edges", "1:1.0,2:2,3:3,4:4"),
    ("--profile", "1_0"),
])
def test_flag_integers_are_decimal(t4_file, tmp_path, capsys, selection):
    out = tmp_path / "x.rhg"
    assert run("construct", "--base", t4_file, "--s-edge", 0, *selection, "--out", out) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_f_edges_side_given_twice_is_a_config_error(t4_file, tmp_path, capsys):
    out = tmp_path / "x.rhg"
    twice = "1:3,1:4,2:5,3:0,4:0"
    assert run("construct", "--base", t4_file, "--s-edge", 0, "--f-edges", twice,
               "--out", out) == 2
    assert "--f-edges side 1 given twice" in capsys.readouterr().err
    assert run("pipeline", "--q", 3, "--f-edges", twice, "--out-dir", tmp_path / "arts") == 2
    assert "--f-edges side 1 given twice" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "arts").exists()


@pytest.mark.parametrize("value", ["1_1", " 3", "3 ", "+3", "3.0", "0x3", "", "３"])
def test_integer_flags_are_strict_decimals(t4_file, tmp_path, capsys, value):
    # int() would take the first four, and the last (a full-width digit)
    out = tmp_path / "x.rhg"
    commands = (
        ("truncate", "--q", value, "--out", out),
        ("truncate", "--q", 3, "--vertex", value, "--out", out),
        ("construct", "--base", t4_file, "--s-edge", value, "--f-default", "--out", out),
        ("pipeline", "--q", value, "--out-dir", tmp_path / "arts"),
        ("pipeline", "--q", 3, "--s-edge", value, "--out-dir", tmp_path / "arts"),
        ("pipeline", "--q", 3, "--jobs", value, "--out-dir", tmp_path / "arts"),
    )
    for argv in commands:
        with pytest.raises(SystemExit) as e:
            run(*argv)
        assert e.value.code == 2, argv
        assert "expected a decimal integer" in capsys.readouterr().err, argv
    assert not out.exists() and not (tmp_path / "arts").exists()


def test_main_reuses_one_parser(tmp_path, monkeypatch):
    # A run of in-process calls, usage errors and --version among them,
    # ends in the pipeline files and report of a first call in a fresh
    # interpreter.  build_parser() still gives a fresh parser each time.
    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(["pipeline", "--q", "4", "--no-such-flag"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert main(["truncate", "--q", "3", "--out", "t4.rhg"]) == 0
    assert main(["construct", "--base", "t4.rhg", "--s-edge", "1", "--f-default",
                 "--out", "h.rhg"]) == 0
    argv = ["pipeline", "--q", "4", "--f-default", "--all-checks",
            "--out-dir", "out", "--json", "rep.json"]
    assert main(argv) == 0
    assert cli._parser() is cli._parser()
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", f"import ryser.cli; ryser.cli.main({argv!r})"],
                   cwd=fresh, env=env, capture_output=True, check=True, timeout=120)
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == sorted(p.name for p in (fresh / "out").iterdir()) and len(names) == 4
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (fresh / "out" / name).read_bytes()
    assert without_wall_times(load(tmp_path / "rep.json")) == \
        without_wall_times(load(fresh / "rep.json"))


def test_importing_the_cli_builds_no_parser():
    # Work done at import lands in every process's start-up time, so the
    # parser is built by the first main call and by no later one.
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import ryser.cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        ryser.cli.main(['plane', '--q', 'x'])  # a usage error\n"
        "    except SystemExit:\n"
        "        counts.append(len(built))\n"
        "print(*counts)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    at_import, first_call, second_call = map(int, out[-1].split())
    assert at_import == 0 and first_call > 0 and second_call == first_call


def test_python_dash_m_runs_the_command_line():
    import ryser

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ryser.__file__))}
    done = subprocess.run([sys.executable, "-m", "ryser", "field", "--p", "2", "--k", "2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "GF(4)" in done.stdout


def test_construct_certifies_uniqueness_by_plane_counting(t4_file, tmp_path):
    # the counting argument runs no search, so no time budget is needed
    rep_path = tmp_path / "c.json"
    assert run("construct", "--base", t4_file, "--s-edge", 2, "--f-default",
               "--out", tmp_path / "h.rhg", "--timeout", 0, "--json", rep_path) == 0
    rep = load(rep_path)
    check = rep["checks"][0]
    assert (check["name"], check["status"]) == ("construction-preconditions", "pass")
    assert check["certificate"] == {"kind": "plane-counting", "q": 3, "edges": 9, "s_edge": 2}
    assert recheck_report(rep, base_dir=".") == []
    for field, value, expect in (("q", 4, "not a truncated plane of order 4"),
                                 ("s_edge", 3, "s_edge 3 is not the anchor edge"),
                                 ("s_edge", 9, "s_edge 9 is not the anchor edge")):
        bad = json.loads(json.dumps(rep))
        bad["checks"][0]["certificate"][field] = value
        problems = recheck_report(bad, base_dir=".")
        assert any(expect in p for p in problems), (field, value, problems)


def test_construct_on_a_base_failing_the_plane_test_has_no_certificate(t3_file, tmp_path):
    rep_path = tmp_path / "c.json"
    assert run("construct", "--base", t3_file, "--s-edge", 0, "--f-default",
               "--out", tmp_path / "h.rhg", "--json", rep_path) == 1
    check = load(rep_path)["checks"][0]
    assert check["status"] == "fail" and "certificate" not in check
    assert "covers-not-sides" in check["detail"]


def test_construct_on_a_base_with_a_quoted_label_is_a_parse_error(t4_file, tmp_path):
    # a label the loader took but the writer refuses used to end the run
    # with a traceback while writing the artifact
    header, side, *rest = t4_file.read_text().splitlines(keepends=True)
    words = side.split()
    words[2] = '"a b"'
    base = tmp_path / "quoted.rhg"
    base.write_text("".join([header, " ".join(words) + "\n", *rest]))
    out = tmp_path / "h.rhg"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "ryser", "construct", "--base", str(base),
                           "--s-edge", "0", "--f-default", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == "error: line 2: expected 's <side_index> <labels...>'\n"
    assert not out.exists()


def test_classification_warning_is_one_plain_stderr_line(tmp_path):
    # Python's display of the r < 5 warning named cli.py and quoted its
    # source line; the command prints the message alone
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "ryser", "pipeline", "--q", "3", "--all-checks",
                           "--out-dir", str(tmp_path / "arts")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ("warning: uniformity r=4 < 5: candidates are classified but the "
                           "twin-pattern guarantee does not apply\n")


def test_pipeline_paper_scale_q25(tmp_path):
    rep_path = tmp_path / "p.json"
    assert run("pipeline", "--q", 25, "--f-default", "--json", rep_path) == 0
    checks = {c["name"]: c for c in load(rep_path)["checks"]}
    assert all(c["status"] == "pass" for c in checks.values())
    assert checks["base-cover-uniqueness"]["certificate"] == {
        "kind": "plane-counting", "q": 25, "edges": 625, "s_edge": 0}


def test_pipeline_paper_scale_q49_ratio_is_answered(tmp_path, monkeypatch):
    # The ratio check's cover call is the extension-cover-number check's
    # question, asked of the uniformized extension's source.  The plane
    # test answers the base's and the extension's calls, so the default
    # pipeline makes no search at all.
    searches, ratio_searches = count_searches(monkeypatch)
    rep_path = tmp_path / "p.json"
    assert run("pipeline", "--q", 49, "--f-default", "--json", rep_path) == 0
    checks = {c["name"]: c for c in load(rep_path)["checks"]}
    assert all(c["status"] == "pass" for c in checks.values())
    assert checks["ryser-ratio"]["certificate"]["tau"] == 50
    assert ratio_searches == [0] and searches == []


def readme_command_lines():
    """Each `ryser ...` line of README's "Command line" block, with its
    backslash continuations joined."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("ryser ")]


def test_readme_command_lines_parse():
    import shlex

    lines = readme_command_lines()
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
        assert args.func.__name__.startswith("cmd_"), line
