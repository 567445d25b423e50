import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import ydde
from ydde import cli, drivers
from ydde.cli import EXIT_CONFIG, EXIT_OK, build_scenario, main, write_table
from ydde.errors import DomainError, GenerationError
from ydde.paths import counterexample_growth

MESH = 1.0 / 128


def scenario_dict(**overrides):
    d = {
        "name": "cli_test",
        "coefficients": {"family": "sin_delay",
                         "params": {"A": -0.15, "B": 0.1, "sigma": 0.05}},
        "driver": {"kind": "fbm", "hurst": 0.75, "seed": 7, "amplitude": 0.05,
                   "T": 1.0, "mesh": MESH},
        "eta": {"form": "linear", "value": 1.0, "slope": 0.2},
        "config": {"beta": 0.55, "nu": 0.7, "mu": 0.25, "mesh": MESH,
                   "T": 1.0, "r": 0.25, "picard_tol": 1e-10,
                   "picard_max_iters": 80},
    }
    for key, val in overrides.items():
        d[key] = val
    return d


def zero_scenario():
    return scenario_dict(
        name="zero",
        coefficients={"family": "linear_delay",
                      "params": {"A": 0.0, "B": 0.0, "Sigma": 0.0, "c": 0.0}},
        driver={"kind": "zero", "T": 1.0, "mesh": MESH},
        eta={"form": "constant", "value": 1.0},
    )


def write_scenario(tmp_path, d, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


def read_all(outdir):
    blobs = {}
    for fname in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fname), "rb") as f:
            blobs[fname] = f.read()
    return blobs


class TestVerify:
    def test_zero_scenario_exits_clean(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, zero_scenario())
        code = main(["verify", "--scenario", sc, "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        report = json.loads((tmp_path / "o" / "verify.json").read_text())
        assert report["all_passed"] is True

    def test_rerun_is_byte_identical(self, tmp_path):
        sc = write_scenario(tmp_path, zero_scenario())
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["verify", "--scenario", sc, "--out", a, "--quiet"]) == EXIT_OK
        assert main(["verify", "--scenario", sc, "--out", b, "--quiet"]) == EXIT_OK
        blobs_a, blobs_b = read_all(a), read_all(b)
        assert blobs_a.keys() == blobs_b.keys()
        for name in blobs_a:
            assert blobs_a[name] == blobs_b[name], name

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, zero_scenario())
        main(["verify", "--scenario", sc, "--out", str(tmp_path / "o"),
              "--quiet"])
        assert capsys.readouterr().out == ""

    def test_full_verify_solves_each_scenario_once(self, tmp_path,
                                                   monkeypatch):
        # picard_solve: the base and the 2 continuity sizes; one batched
        # re-solve each for the 2 other uniqueness inits and the 3-step ladder
        calls, batches = [], []
        picard_solve = ydde.solver.picard_solve
        resolve = ydde.solver.resolve

        def counting(*args, **kwargs):
            calls.append(1)
            return picard_solve(*args, **kwargs)

        def counting_batches(base, starts):
            batches.append([kind for _, kind in starts])
            return resolve(base, starts)

        monkeypatch.setattr(ydde.solver, "picard_solve", counting)
        monkeypatch.setattr(ydde.sensitivity, "picard_solve", counting)
        monkeypatch.setattr(ydde.solver, "resolve", counting_batches)
        monkeypatch.setattr(ydde.sensitivity, "resolve", counting_batches)
        sc = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                          "scenarios", "sin_fbm.json")
        assert main(["verify", "--scenario", sc, "--out",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_OK
        assert len(calls) == 3
        assert batches == [["linear", "euler_perturbed"],
                           ["constant"] * 3]

    @pytest.mark.parametrize("command", ["verify", "sensitivity"])
    @pytest.mark.parametrize("name", ["sin_fbm", "linear_fbm"])
    def test_batched_resolves_match_solo_solves(self, tmp_path, monkeypatch,
                                                command, name):
        # the former re-solves, one picard_solve per start, as the oracle
        def solo_loop(base, starts):
            return [ydde.solver.picard_solve(base.coeffs, eta, base.omega,
                                             base.config, init=kind).solution
                    for eta, kind in starts]

        sc = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                          "scenarios", f"{name}.json")
        argv = [command, "--scenario", sc, "--quiet", "--out"]
        assert main(argv + [str(tmp_path / "batched")]) == EXIT_OK
        monkeypatch.setattr(ydde.solver, "resolve", solo_loop)
        monkeypatch.setattr(ydde.sensitivity, "resolve", solo_loop)
        assert main(argv + [str(tmp_path / "solo")]) == EXIT_OK
        assert read_all(tmp_path / "batched") == read_all(tmp_path / "solo")


@pytest.fixture(scope="module")
def full_verify(tmp_path_factory):
    """verify.json and the stdout lines of a run with every check on."""
    tmp = tmp_path_factory.mktemp("full")
    sc = write_scenario(tmp, scenario_dict())
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["verify", "--scenario", sc, "--out",
                     str(tmp / "o")]) == EXIT_OK
    return (json.loads((tmp / "o" / "verify.json").read_text()),
            stdout.getvalue().splitlines())


class TestCheckTable:
    def test_prints_checks_in_table_order(self, full_verify):
        verdict, lines = full_verify
        assert [re.match(r"\[PASS\] (\w+): ", line)[1]
                for line in lines[:-1]] == list(cli._CHECKS)
        assert lines[-1] == "verify: all checks passed"
        assert list(verdict["checks"]) == sorted(cli._CHECKS)

    @pytest.mark.parametrize("name", list(cli._CHECKS))
    def test_each_check_runs_alone(self, tmp_path, capsys, full_verify, name):
        # the same verdict and stdout line as in the full run, and only the
        # young check writes its certificate table
        sc = write_scenario(tmp_path, scenario_dict(checks=[name]))
        out = tmp_path / "o"
        assert main(["verify", "--scenario", sc, "--out", str(out)]) == EXIT_OK
        verdict = json.loads((out / "verify.json").read_text())
        assert verdict["checks"] == {name: full_verify[0]["checks"][name]}
        line, = [line for line in full_verify[1]
                 if line.startswith(f"[PASS] {name}: ")]
        assert capsys.readouterr().out.splitlines() == [
            line, "verify: all checks passed"]
        assert (out / "young_certificate.csv").exists() == (name == "young")

    @pytest.mark.parametrize("checks, message", [
        (5, "must be a list"), ("growth", "must be a list"),
        ({"growth": True}, "must be a list"), (None, "must be a list"),
        ([["growth"]], "unknown checks [['growth']]"),
        ([5, "growth"], "unknown checks [5]"),
        (["growth", "nonsense"], "unknown checks ['nonsense']"),
    ], ids=["number", "string", "object", "null", "nested_list",
            "number_entry", "unknown_name"])
    def test_malformed_checks_exit_config(self, tmp_path, capsys, checks,
                                          message):
        sc = write_scenario(tmp_path, scenario_dict(checks=checks))
        out = tmp_path / "o"
        assert main(["verify", "--scenario", sc, "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err
        assert os.listdir(out) == ["error.json"]
        assert json.loads((out / "error.json").read_text())["error"]["type"] \
            == "DomainError"


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_holder_seminorms_go_through_holder_seminorm(tmp_path, monkeypatch,
                                                     command):
    # the whole-window Holder seminorms are read through the public
    # paths.holder_seminorm, so a wrapper put wherever the package holds it,
    # as a tracer of its layers does, sees them
    calls = []
    original = ydde.paths.holder_seminorm

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    modules = [ydde] + [m for m in vars(ydde).values()
                        if getattr(m, "__name__", "").startswith("ydde.")
                        and hasattr(m, "__file__")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counting)
    sc = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                      "scenarios", "sin_fbm.json")
    assert main([command, "--scenario", sc, "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_OK
    assert calls


class TestSolve:
    def test_artifacts_and_row_count(self, tmp_path):
        sc = write_scenario(tmp_path, scenario_dict())
        out = tmp_path / "o"
        assert main(["solve", "--scenario", sc, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        rows = (out / "solution.csv").read_text().splitlines()
        expected_nodes = round((1.0 + 0.25) / MESH) + 1
        assert rows[0] == "t,x_1"
        assert len(rows) == expected_nodes + 1
        diag = json.loads((out / "diagnostics.json").read_text())
        assert "wall_time" not in json.dumps(diag)
        assert diag["max_residual"] <= 1e-10
        assert (out / "partition.csv").exists()

    def test_seed_flag_changes_solution(self, tmp_path):
        sc = write_scenario(tmp_path, scenario_dict())
        a, b = tmp_path / "a", tmp_path / "b"
        main(["solve", "--scenario", sc, "--out", str(a), "--quiet"])
        main(["solve", "--scenario", sc, "--out", str(b), "--quiet",
              "--seed", "8"])
        assert (a / "solution.csv").read_text() != (b / "solution.csv").read_text()

    def test_mesh_flag_overrides_grid(self, tmp_path):
        sc = write_scenario(tmp_path, zero_scenario())
        out = tmp_path / "o"
        assert main(["solve", "--scenario", sc, "--out", str(out), "--quiet",
                     "--mesh", str(1 / 64)]) == EXIT_OK
        rows = (out / "solution.csv").read_text().splitlines()
        assert len(rows) == round((1.0 + 0.25) * 64) + 2

    @pytest.mark.parametrize("nodes", [65, 64])
    def test_samples_history(self, tmp_path, capsys, nodes):
        # r = 1/2 at mesh 1/128: the history segment has 64 cells, 65 nodes
        samples = [1.0 + 0.1 * math.sin(0.3 * k) for k in range(nodes)]
        d = scenario_dict(eta={"form": "samples", "samples": samples})
        d["config"]["r"] = 0.5
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        code = main(["solve", "--scenario", sc, "--out", str(out), "--quiet"])
        if nodes == 64:
            assert code == EXIT_CONFIG
            assert "Traceback" not in capsys.readouterr().err
            assert os.listdir(out) == ["error.json"]
            error = json.loads((out / "error.json").read_text())["error"]
            assert error["type"] == "DomainError"
            assert "segment needs 65 nodes" in error["message"]
            return
        assert code == EXIT_OK
        rows = (out / "solution.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows[:65]] == samples
        assert len(rows) == 65 + 128


class TestPartitionCommand:
    def test_flat_driver_with_explicit_constant(self, tmp_path):
        d = zero_scenario()
        d["config"]["beta"] = 0.4
        d["config"]["mesh"] = 1.0 / 1024
        d["driver"]["mesh"] = 1.0 / 1024
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        assert main(["partition", "--scenario", sc, "--C", "8", "--out",
                     str(out), "--quiet"]) == EXIT_OK
        info = json.loads((out / "partition.json").read_text())
        # analytic window (mu/C)^(1/(1-beta)), snapped down to the grid
        analytic = (0.25 / 8.0) ** (1.0 / 0.6)
        assert info["driverless_window_length"] == pytest.approx(analytic,
                                                                 rel=1e-12)
        assert abs(info["driverless_window_snapped"] - analytic) <= 1.0 / 1024
        assert abs(info["N"] - info["driverless_expected_count"]) <= 2
        assert info["N"] <= info["stopping_count_bound"]

    def test_uses_scenario_coefficients_without_flag(self, tmp_path):
        sc = write_scenario(tmp_path, scenario_dict())
        out = tmp_path / "o"
        assert main(["partition", "--scenario", sc, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        info = json.loads((out / "partition.json").read_text())
        assert info["C"] > 1.0


class TestConvergeCommand:
    def test_sine_ladder(self, tmp_path):
        d = zero_scenario()
        d["driver"] = {"kind": "sine", "amplitude": 1.0, "frequency": 0.1,
                       "T": 1.0, "mesh": MESH}
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        assert main(["converge", "--scenario", sc, "--levels", "4",
                     "--out", str(out), "--quiet"]) == EXIT_OK
        rows = (out / "converge.csv").read_text().splitlines()
        assert rows[0] == "mesh,integral,abs_error,rel_error"
        rels = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(b < a for a, b in zip(rels, rels[1:]))
        assert rels[-1] <= 1e-3


    @pytest.mark.parametrize("driver, rtol", [
        ({"kind": "zero", "T": 1.0, "mesh": MESH}, "1e-3"),
        ({"kind": "sine", "amplitude": 1.0, "frequency": 1.0, "T": 1.0,
          "mesh": MESH}, "0.05"),
    ], ids=["zero_driver", "whole_sine_period"])
    def test_vanishing_target_judged_on_scale(self, tmp_path, driver, rtol):
        # the target is 0 (or 3e-32 by cancellation): relative errors are
        # inf (or 1e29), so the ladder is judged against max |omega|^2 / 2
        d = zero_scenario()
        d["driver"] = driver
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        assert main(["converge", "--scenario", sc, "--levels", "4",
                     "--rtol", rtol, "--out", str(out), "--quiet"]) == EXIT_OK
        rows = [r.split(",") for r in
                (out / "converge.csv").read_text().splitlines()[1:]]
        assert float(rows[-1][3]) > 1e20
        if driver["kind"] == "sine":
            # 0.0096 of the scale 0.5: it fails a tighter rtol
            assert main(["converge", "--scenario", sc, "--levels", "4",
                         "--rtol", "0.01", "--out", str(out), "--quiet"]) \
                == cli.EXIT_CHECK_FAILED

    def test_prints_the_error_the_rule_judges(self, tmp_path, capsys):
        # a whole sine period: the target cancels to about 0, so the line
        # gives the final absolute error and the threshold rtol * scale
        # (scale 0.5) that the pass rule compares, not a relative error
        d = zero_scenario()
        d["driver"] = {"kind": "sine", "amplitude": 1.0, "frequency": 1.0,
                       "T": 1.0, "mesh": MESH}
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        assert main(["converge", "--scenario", sc, "--levels", "4",
                     "--rtol", "0.05", "--out", str(out)]) == EXIT_OK
        line = capsys.readouterr().out.strip()
        rows = [r.split(",") for r in
                (out / "converge.csv").read_text().splitlines()[1:]]
        assert f"final abs error {float(rows[-1][2]):.3e}" in line
        assert "threshold rtol * scale 2.500e-02" in line
        assert "inf" not in line and "rel" not in line


class TestCounterexampleCommand:
    def test_prints_lower_bound(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["counterexample", "--beta", "0.4", "--p", "2",
                     "--n", "100", "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        match = re.search(r"lower bound ([0-9.]+)", text)
        assert match and float(match.group(1)) == pytest.approx(1.5849, abs=1e-4)

    def test_table_is_the_growth_rows(self, tmp_path):
        out = tmp_path / "o"
        assert main(["counterexample", "--n", "100", "--n", "1000",
                     "--out", str(out), "--quiet"]) == EXIT_OK
        want = ["n,partition_sum,lower_bound"] + [
            f"{n},{counterexample_growth(0.4, 2.0, n):.17g},"
            f"{n ** ((1.0 - 0.4 * 2.0) / 2.0):.17g}" for n in (100, 1000)]
        assert (out / "counterexample.csv").read_text().splitlines() == want

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--mesh", "0.1"],
                                      ["--scenario", "bad.json"]],
                             ids=["seed", "mesh", "scenario"])
    def test_refuses_scenario_flags(self, tmp_path, capsys, flag):
        # the table reads no scenario: the flags that would change one are
        # refused by the parser, before any file is read or written
        (tmp_path / "bad.json").write_text("{")
        out = tmp_path / "o"
        argv = ["counterexample"] + flag + ["--out", str(out)]
        if flag[0] == "--scenario":
            argv[2] = str(tmp_path / "bad.json")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_ladder_monotone(self, tmp_path):
        out = tmp_path / "o"
        assert main(["counterexample", "--n", "100", "--n", "1000",
                     "--out", str(out), "--quiet"]) == EXIT_OK
        rows = (out / "counterexample.csv").read_text().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert vals[1] > vals[0]


class TestSensitivityCommand:
    def test_linear_scenario(self, tmp_path):
        d = scenario_dict(
            name="lin",
            coefficients={"family": "linear_delay",
                          "params": {"A": -0.15, "B": 0.05, "Sigma": 0.05,
                                     "c": 0.02}})
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        assert main(["sensitivity", "--scenario", sc, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        verdict = json.loads((out / "sensitivity.json").read_text())
        assert all(v["pointwise_ok"] and v["full_ok"]
                   for v in verdict["continuity"].values())
        table = (out / "differentiability.csv").read_text().splitlines()
        assert table[0] == "eps,rho"
        assert len(table) == 4


class TestEnsembleCommand:
    def test_workers_do_not_change_bytes(self, tmp_path):
        sc = write_scenario(tmp_path, scenario_dict())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ensemble", "--scenario", sc, "--seeds", "3",
                     "--workers", "1", "--out", str(a), "--quiet"]) == EXIT_OK
        assert main(["ensemble", "--scenario", sc, "--seeds", "3",
                     "--workers", "2", "--out", str(b), "--quiet"]) == EXIT_OK
        assert (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()
        rows = (a / "ensemble.csv").read_text().splitlines()[1:]
        seeds = [int(r.split(",")[0]) for r in rows]
        assert seeds == sorted(seeds) and len(seeds) == 3

    @pytest.mark.parametrize("workers, seeds, pool", [
        (64, 2, 2), (2, 3, 2), (1, 3, None), (5, 1, None)])
    def test_pool_no_larger_than_seeds(self, tmp_path, monkeypatch, workers,
                                       seeds, pool):
        sized = []

        class SerialPool:
            """Records the pool size and maps in this process."""

            def __init__(self, max_workers):
                sized.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        sc = write_scenario(tmp_path, zero_scenario())
        out = tmp_path / "o"
        assert main(["ensemble", "--scenario", sc, "--seeds", str(seeds),
                     "--workers", str(workers), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        assert sized == ([] if pool is None else [pool])
        assert len((out / "ensemble.csv").read_text().splitlines()) == seeds + 1


class TestErrorHandling:
    def test_missing_scenario_exits_config(self, tmp_path, capsys):
        code = main(["solve", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "requires --scenario" in capsys.readouterr().err

    def test_bad_config_value_exits_config(self, tmp_path, capsys):
        d = zero_scenario()
        d["config"]["mu"] = 0.9
        sc = write_scenario(tmp_path, d)
        assert main(["solve", "--scenario", sc,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "mu" in capsys.readouterr().err

    def test_error_json_on_config_error(self, tmp_path, capsys):
        d = zero_scenario()
        d["config"]["mu"] = 0.9
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        assert main(["solve", "--scenario", sc, "--out", str(out)]) \
            == EXIT_CONFIG
        capsys.readouterr()
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("blocked", ["out_below_file", "error_json_dir"])
    def test_unwritable_error_json_keeps_exit_code(self, tmp_path, capsys,
                                                   blocked):
        # the out path sits below a regular file, or error.json cannot be
        # created in it: still exit 2 with the one-line message
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "o"
        if blocked == "error_json_dir":
            out = tmp_path / "o"
            (out / "error.json").mkdir(parents=True)
        d = zero_scenario()
        d["config"]["mu"] = 0.9
        sc = write_scenario(tmp_path, d)
        assert main(["solve", "--scenario", sc, "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_nonexistent_file(self, tmp_path, capsys):
        assert main(["verify", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("section, key, value, exc_type", [
        ("config", "picard_maxiters", 80, "DomainError"),
        ("driver", "hurts", 0.75, "DomainError"),
        ("coefficients", "params", {"sigma": "abc"}, "DomainError"),
        ("config", "picard_max_iters", 1, "ConvergenceError"),
    ], ids=["config_key", "driver_key", "coefficient_value", "no_convergence"])
    def test_bad_scenario_writes_error_json(self, tmp_path, capsys, section,
                                            key, value, exc_type):
        d = scenario_dict()
        d[section][key] = value
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        assert main(["solve", "--scenario", sc, "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if exc_type == "DomainError":
            assert f"scenario {section}" in err
        assert json.loads((out / "error.json").read_text())["error"]["type"] \
            == exc_type

    @pytest.mark.parametrize("section, value, flags", [
        ("eta", 5, []), ("direction", [], []), (None, [1, 2], []),
        ("driver", "fbm", []), ("coefficients", [], []),
        (None, [1, 2], ["--seed", "3"]), ("driver", 5, ["--seed", "3"]),
        ("config", [], ["--mesh", "0.0078125"]),
    ], ids=["eta", "direction", "top_level", "driver", "coefficients",
            "top_level_seed_flag", "driver_seed_flag", "config_mesh_flag"])
    def test_non_object_scenario_writes_error_json(self, tmp_path, capsys,
                                                   section, value, flags):
        # a scenario and each of its sections must be a JSON object, also
        # where a flag overrides a key in it
        d = value if section is None else scenario_dict(**{section: value})
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        assert main(["solve", "--scenario", sc, "--out", str(out), *flags]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        name = "scenario" if section is None else f"scenario {section}"
        assert f"{name} must be an object, got {type(value).__name__}" in err
        assert json.loads((out / "error.json").read_text())["error"]["type"] \
            == "DomainError"

    @pytest.mark.parametrize("key, value", [
        ("picard_tol", float("nan")), ("picard_tol", float("inf")),
        ("T", float("inf")), ("T", float("nan")), ("mesh", float("nan")),
        ("mesh", float("inf")), ("r", float("nan")),
        ("picard_max_iters", 2.5), ("picard_max_iters", 80.0),
        ("picard_max_iters", True), ("picard_max_iters", 0),
    ])
    def test_non_finite_or_fractional_config(self, tmp_path, capsys, key,
                                             value):
        d = scenario_dict()
        d["config"][key] = value
        if key == "mesh":
            d["driver"]["mesh"] = value
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        assert main(["solve", "--scenario", sc, "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and "convert" not in err
        assert json.loads((out / "error.json").read_text())["error"]["type"] \
            == "DomainError"
        assert not os.path.exists(out / "solution.csv")

    @pytest.mark.parametrize("cells", [1, 2])
    def test_estimates_on_the_shortest_horizons(self, tmp_path, capsys, cells):
        # the estimates draw windows of 2 cells: a one-cell horizon has none
        d = scenario_dict(checks=["estimates"])
        d["driver"]["T"] = d["config"]["T"] = cells * MESH
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        code = main(["verify", "--scenario", sc, "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        if cells == 2:
            assert code == EXIT_OK
            assert not os.path.exists(out / "error.json")
            return
        assert code == EXIT_CONFIG
        error = json.loads((out / "error.json").read_text())["error"]
        assert error["type"] == "DomainError"
        assert "at least 2 cells" in error["message"]

    @pytest.mark.parametrize("command, seed", [
        pytest.param(command, seed, id=f"{prefix}{seed}")
        for command, prefix in (("solve", ""), ("verify", "verify-"))
        for seed in (1.5, 1.0, True, "7", -1, 2 ** 64)])
    def test_non_integer_driver_seed(self, tmp_path, capsys, command, seed):
        # verify solves the scenario as solve does, and refuses the seed
        # with the same exit code and error.json
        d = scenario_dict()
        d["driver"]["seed"] = seed
        sc = write_scenario(tmp_path, d)
        out = tmp_path / "o"
        assert main([command, "--scenario", sc, "--out", str(out)]) \
            == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        error = json.loads((out / "error.json").read_text())["error"]
        assert error["type"] == "DomainError"
        assert "seed must be an integer" in error["message"]
        assert not os.path.exists(out / "solution.csv")

    @pytest.mark.parametrize("argv, message", [
        (["ensemble", "--seeds", "0"], "--seeds >= 1"),
        (["ensemble", "--seeds", "-3"], "--seeds >= 1"),
        (["ensemble", "--workers", "0"], "--workers >= 1"),
        (["ensemble", "--workers", "-3"], "--workers >= 1"),
        (["converge", "--levels", "1"], "at least 2 levels"),
        # NaN fails every comparison, so each guard is written negated
        (["partition", "--C", "nan"], "0 < C < inf"),
        (["partition", "--C", "inf"], "0 < C < inf"),
        (["partition", "--C", "0"], "0 < C < inf"),
        (["partition", "--C", "-1"], "0 < C < inf"),
        (["counterexample", "--p", "nan"], "p must be >= 1"),
        (["converge", "--rtol", "nan"], "--rtol >= 0"),
        # grids too large to allocate are refused before any is built
        (["solve", "--mesh", "1e-11"], "grid intervals"),
        (["converge", "--levels", "60"], "grid intervals"),
        (["counterexample", "--n", "100000000000"], "grid intervals"),
    ], ids=["ensemble_zero_seeds", "ensemble_negative_seeds",
            "ensemble_zero_workers", "ensemble_negative_workers",
            "converge_one_level", "partition_nan_C", "partition_inf_C",
            "partition_zero_C", "partition_negative_C", "counterexample_nan_p", "converge_nan_rtol", "solve_huge_mesh",
            "converge_huge_levels", "counterexample_huge_n"])
    def test_bad_flag_writes_error_json(self, tmp_path, capsys, argv,
                                        message):
        if argv[0] != "counterexample":     # it takes no scenario
            argv = argv + ["--scenario", write_scenario(tmp_path,
                                                        zero_scenario())]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err
        assert os.listdir(out) == ["error.json"]
        assert json.loads((out / "error.json").read_text())["error"]["type"] \
            == "DomainError"

    def test_generation_failure_writes_error_json(self, tmp_path, capsys,
                                                  monkeypatch):
        def fail(spec):
            raise GenerationError("covariance not PSD")

        monkeypatch.setattr(drivers, "gen_driver", fail)
        sc = write_scenario(tmp_path, scenario_dict())
        out = tmp_path / "o"
        assert main(["solve", "--scenario", sc, "--out", str(out)]) \
            == EXIT_CONFIG
        assert "covariance not PSD" in capsys.readouterr().err
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "GenerationError"

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_history_refused_before_solving(
            self, tmp_path, capsys, monkeypatch, command, bad):
        # json reads NaN and Infinity: the start is refused as the scenario
        # loads, not by the solution's path after the solve
        def fail(*args, **kwargs):
            raise AssertionError("solved a refused start")

        monkeypatch.setattr(ydde.solver, "picard_solve", fail)
        samples = [1.0 + 0.2 * (k / 128 - 0.25) for k in range(33)]
        samples[-1] = bad
        sc = write_scenario(tmp_path, scenario_dict(
            eta={"form": "samples", "samples": samples}))
        out = tmp_path / "o"
        assert main([command, "--scenario", sc, "--out", str(out)]) \
            == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert os.listdir(out) == ["error.json"]
        assert json.loads((out / "error.json").read_text())["error"] == {
            "type": "DomainError",
            "message": "scenario eta: segment values must be finite"}

    def test_env_var_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("YDDE_OUT", str(tmp_path / "envout"))
        assert main(["counterexample", "--n", "10", "--quiet"]) == EXIT_OK
        assert (tmp_path / "envout" / "counterexample.csv").exists()


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        sc = write_scenario(tmp_path, zero_scenario())
        src = os.path.dirname(os.path.dirname(ydde.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "ydde", "solve", "--scenario", sc,
             "--out", str(tmp_path / "sub"), "--quiet"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main(["solve", "--scenario", sc, "--out",
                     str(tmp_path / "inproc"), "--quiet"]) == EXIT_OK
        assert read_all(tmp_path / "sub") == read_all(tmp_path / "inproc")


class TestEmit:
    def test_empty_table_keeps_header(self):
        buf = io.StringIO()
        write_table([], ["a", "b"], buf)
        assert buf.getvalue() == "a,b\n"

    def test_seventeen_digit_floats(self):
        buf = io.StringIO()
        write_table([(1 / 3, 2)], ["x", "k"], buf)
        assert buf.getvalue().splitlines()[1] == "0.33333333333333331,2"

    def test_scenario_validation(self):
        with pytest.raises(DomainError):
            build_scenario(scenario_dict(checks=["nonsense"]))
        with pytest.raises(KeyError):
            build_scenario({"name": "x"})
