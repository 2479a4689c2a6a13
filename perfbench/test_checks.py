"""Tests of the benchmark itself: a corrupted output must count as a
failed operation, and the traced run must report exactly the metrics
BENCHMARK.json names.  Small orders keep each test under a few seconds.

    python3 -m pytest perfbench
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run

run.load_package()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ryser import analysis, cli, construct, gf, plane, solver  # noqa: E402

SMALL_DEEP = (workloads.Order(q=3, p=3, k=1, vertex=0, anchor=0),)
PIPELINE = workloads.make_inputs("pipeline-all-checks", 1)
BENCHMARK = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def small_family(seed):
    family, iso = workloads.make_inputs("profile-family", seed)
    return family[:2], iso


def test_deep_chain_passes_on_a_small_plane():
    rnd = workloads.Round()
    workloads.deep_cover(rnd, SMALL_DEEP)
    assert rnd.attempted > 0 and rnd.failed == 0


@pytest.mark.parametrize("corrupt", [
    lambda res: dataclasses.replace(res, witness=res.witness[1:]),
    lambda res: dataclasses.replace(res, tau=res.tau + 1),
])
def test_corrupted_cover_counts_a_failed_operation(monkeypatch, corrupt):
    real = solver.cover_number
    monkeypatch.setattr(solver, "cover_number", lambda *a, **k: corrupt(real(*a, **k)))
    rnd = workloads.Round()
    workloads.deep_cover(rnd, SMALL_DEEP)
    assert rnd.failed == 3            # base, extension, uniformized extension


def test_corrupted_pipeline_witness_counts_a_failed_operation(monkeypatch, tmp_path):
    real = cli.cover_certificate

    def one_vertex(res, *a, **k):
        cert = real(res, *a, **k)
        return {**cert, "witness": cert["witness"][:1]}

    monkeypatch.setattr(cli, "cover_certificate", one_vertex)
    rnd = workloads.Round()
    workloads.pipeline(rnd, PIPELINE, str(tmp_path))
    assert rnd.attempted == len(PIPELINE) == rnd.failed


def test_addable_edge_counts_match_the_program():
    t = plane.truncate(plane.build_plane(gf.FiniteField(2, 2)), 0)
    spec = construct.select_f_default(t, 0)
    h = construct.build_extension(spec, check=False)
    assert dict(checks.addable_edge_counts(h)) == analysis.classify_extensions(h, spec).counts


def test_traced_run_reports_the_named_metrics_and_repeats_counts(tmp_path):
    inputs = small_family(3)          # made untraced, as in run.py
    tracer = spans.Tracer()
    tracer.install()
    try:
        layers = []
        for _ in range(2):
            rnd = workloads.Round()
            workloads.profile_family(rnd, inputs, str(tmp_path))
            assert rnd.failed == 0
            layers.append(spans.layer_metrics(tracer.end_round(), [1.0] * rnd.attempted))
    finally:
        tracer.uninstall()
    # trace.wall_s comes from the round's timed calls, in run.py.
    assert list(layers[0]) == [m["name"] for m in BENCHMARK["per_layer"]
                               if m["name"] != "trace.wall_s"]
    counts = [m for m, unit in spans.METRICS.items() if unit in ("count", "bytes")]
    assert {m: layers[0][m] for m in counts} == {m: layers[1][m] for m in counts}
    assert all(layers[0][m] == 0 for m in layers[0] if m.startswith("solver."))
    assert layers[0]["analysis.exact_isomorphic.s"] > 0
    assert layers[0]["hypergraph.is_intersecting.calls"] > 0


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
