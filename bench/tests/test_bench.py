"""Self-test of the benchmark: python3 -m pytest bench/tests -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import bootstrap  # noqa: E402

bootstrap.prepare()
ydde = bootstrap.import_ydde()

import harness  # noqa: E402
import tracer as tr  # noqa: E402

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
TINY = harness.Sizes(verify_mesh=2.0 ** -7, solve_mesh=2.0 ** -7,
                     ensemble_mesh=2.0 ** -7, ensemble_seeds=2,
                     sweep_meshes=(2.0 ** -7, 2.0 ** -8), setup_probes=1)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    result, report = harness.run(ydde, workload, 3, 0.01, trace, TINY)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    name, unit = harness.WORKLOAD_METRIC[workload]
    assert report[name]["unit"] == unit and report[name]["value"] > 0
    json.dumps(result, allow_nan=False)


class RaisingTracer(tr.Tracer):
    """Its picard_solve wrapper raises on the first call only."""

    raised = False

    def wrap(self, name, fn, counter=None):
        wrapped = super().wrap(name, fn, counter)
        if name != "solver.picard_solve":
            return wrapped

        def once(*args, **kwargs):
            if not RaisingTracer.raised:
                RaisingTracer.raised = True
                raise RuntimeError("forced failure")
            return wrapped(*args, **kwargs)
        return once


def test_raise_inside_an_operation_is_counted(monkeypatch):
    original = ydde.solver.picard_solve
    monkeypatch.setattr(tr, "Tracer", RaisingTracer)
    result, _ = harness.run(ydde, "solve-fine", 3, 0.01, True, TINY)
    assert RaisingTracer.raised
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] > 1
    assert result["metrics"]["ops_failed_frac"]["value"] == \
        pytest.approx(1 / result["attempted"])
    assert ydde.solver.picard_solve is original


def test_child_spans_nest_within_parents():
    loaded = harness.load(ydde, "verify-fbm", 3, TINY)
    name, seed, _ = loaded[0]
    out = bootstrap.OUT / "selftest-spans"
    out.mkdir(parents=True, exist_ok=True)
    try:
        op = harness.verify_op(ydde, name, seed, TINY.verify_mesh, str(out))
        tracer = tr.Tracer()
        with tr.instrument(tracer, ydde), tracer.span("op"):
            op()
    finally:
        shutil.rmtree(out)
    spans = tracer.spans
    assert len(spans) > 1
    for _, start, end, parent, root in spans:
        assert start <= end and root == 0
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    parents = {(spans[p][0], n) for n, _, _, p, _ in spans if p is not None}
    # picard_solve as bound inside sensitivity, greedy_partition inside it
    assert ("sensitivity.continuity_check", "solver.picard_solve") in parents
    assert ("solver.picard_solve", "solver.greedy_partition") in parents
    assert ("op", "cli.verify_self") in parents
    assert ydde.sensitivity.picard_solve is ydde.solver.picard_solve
    assert ydde.cli._COMMANDS["verify"] is ydde.cli.cmd_verify
    assert not hasattr(ydde.solver.picard_solve, "__wrapped__")


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "solve-fine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
