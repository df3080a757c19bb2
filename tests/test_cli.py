import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netdisturb
from netdisturb import ConfigError, SemProblem, build_weight_matrix, fit
from netdisturb._serialize import write_json
from netdisturb.sem import residuals
from netdisturb.cli import (
    _periods,
    load_run_config,
    load_sim_spec,
    main,
    parse_candidate,
    parse_config,
    parse_grid,
    parse_recipe,
)
from netdisturb.weights import WeightMatrix

SIM_SPEC = """
n_nodes = 12
n_periods = 4
density = 0.3
structure = full_activity
rho = 0.45
beta = 1, 2, -1
sigma = 1
seed = 7
"""

RUN_CONFIG = """
edges = data/edges.csv
roster = data/roster.csv
nodal.x1 = data/x1.csv
nodal.x2 = data/x2.csv
dyadic.alliance = data/alliance.csv
dyadic.alliance.default = 0
dyadic.distance = data/distance.csv
recipe = x1:sender, x2:receiver
lag = 0
candidates = sender_attached, receiver_attached, full_activity, rho0
scan_grid = 200:3000:200
smooth_window = 3
diagnose_structure = full_activity
seed = 7
"""


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data"
    spec_file = tmp_path / "sim.cfg"
    spec_file.write_text(SIM_SPEC, encoding="utf-8")
    assert main(["simulate", "--spec", str(spec_file), "--out", str(data)]) == 0
    config_file = tmp_path / "run.cfg"
    config_file.write_text(RUN_CONFIG, encoding="utf-8")
    return tmp_path, config_file


class TestConfigParsing:
    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("edges data/edges.csv\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("a = 1\na = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate key 'a'"):
            parse_config(path)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\n\na = 1  # trailing\n", encoding="utf-8")
        assert parse_config(path) == {"a": "1"}

    def test_candidates(self):
        assert parse_candidate("rho0") == "rho0"
        spec = parse_candidate("distance_import:1100")
        assert spec.kind == "distance_import"
        assert spec.cutoff_km == 1100.0
        with pytest.raises(ConfigError, match="unknown candidate"):
            parse_candidate("nearest")
        with pytest.raises(ConfigError, match="needs a cutoff"):
            parse_candidate("distance_import")
        with pytest.raises(ConfigError, match="only distance kinds"):
            parse_candidate("full_activity:5")

    def test_recipe(self):
        terms = parse_recipe("log:gdp:sender, alliance:dyadic")
        assert terms[0].transform == "log"
        assert terms[0].role == "sender"
        assert terms[1].series == "alliance"
        with pytest.raises(ConfigError, match="recipe term"):
            parse_recipe("gdp")
        with pytest.raises(ConfigError, match="recipe term"):
            parse_recipe("gdp:everything")

    def test_grid(self):
        grid = parse_grid("0:1000:250")
        np.testing.assert_array_equal(grid, [0.0, 250.0, 500.0, 750.0, 1000.0])
        with pytest.raises(ConfigError, match="start:stop:step"):
            parse_grid("0:1000")

    @pytest.mark.parametrize("cutoff", ["-5", "0", "nan", "-inf"])
    def test_nonpositive_cutoff(self, cutoff):
        token = f"distance_import:{cutoff}"
        with pytest.raises(ConfigError) as info:
            parse_candidate(token)
        assert str(info.value) == (
            f"candidate {token!r}: distance_import needs a positive cutoff_km, got {float(cutoff)!r}"
        )

    @pytest.mark.parametrize("text", ["nan:100:10", "0:inf:10", "0:100:nan", "-inf:0:1"])
    def test_grid_numbers_must_be_finite(self, text):
        with pytest.raises(ConfigError) as info:
            parse_grid(text)
        assert str(info.value) == f"scan_grid {text!r}: bad number"

    @pytest.mark.parametrize("cutoff", ["-5", "0", "nan"])
    @pytest.mark.parametrize("key", ["candidates", "diagnose_structure", "structure"])
    def test_bad_cutoff_exits_2(self, workspace, capsys, key, cutoff):
        tmp_path, config_file = workspace
        token = f"distance_import:{cutoff}"
        if key == "structure":
            spec_file = tmp_path / "sim.cfg"
            spec_file.write_text(SIM_SPEC.replace("structure = full_activity", f"structure = {token}"))
            argv = ["simulate", "--spec", str(spec_file), "--out", str(tmp_path / "data2")]
        else:
            old = "candidates = " if key == "candidates" else "diagnose_structure = full_activity"
            new = f"candidates = {token}, " if key == "candidates" else f"diagnose_structure = {token}"
            config_file.write_text(config_file.read_text().replace(old, new))
            command = "fit" if key == "candidates" else "diagnose"
            argv = [command, "--config", str(config_file), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        message = f"candidate {token!r}: distance_import needs a positive cutoff_km, got {float(cutoff)!r}"
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists() and not (tmp_path / "data2").exists()

    def test_nonfinite_grid_exits_2(self, workspace, capsys):
        tmp_path, config_file = workspace
        text = config_file.read_text().replace("scan_grid = 200:3000:200", "scan_grid = nan:100:10")
        config_file.write_text(text)
        assert main(["scan-cutoff", "--config", str(config_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: scan_grid 'nan:100:10': bad number\n"

    def test_nonfinite_nodal_value_exits_with_its_file_and_line(self, workspace, capsys):
        tmp_path, config_file = workspace
        x1 = tmp_path / "data" / "x1.csv"
        lines = x1.read_text().splitlines(keepends=True)
        node, period, _ = lines[3].split(",")
        x1.write_text("".join(lines[:3] + [f"{node},{period},inf\n"] + lines[4:]))
        assert main(["fit", "--config", str(config_file), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {x1}:4: bad value 'inf'\n"

    def test_missing_covariate_file_named(self, workspace):
        tmp_path, config_file = workspace
        (tmp_path / "data" / "x1.csv").unlink()
        with pytest.raises(ConfigError, match="x1.csv"):
            load_run_config(config_file)

    @pytest.mark.parametrize("key", ["bogus", "alliance_series", "distance_series"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"edges = a\nroster = b\nrecipe = x:sender\ncandidates = rho0\n{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_run_config(path)

    @pytest.mark.parametrize("where", ["flag", "key"])
    def test_jobs_below_one_rejected(self, workspace, capsys, where):
        tmp_path, config_file = workspace
        argv = ["fit", "--config", str(config_file), "--out", str(tmp_path / "out")]
        if where == "flag":
            argv += ["--jobs", "0"]
        else:
            config_file.write_text(config_file.read_text() + "jobs = -1\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: jobs must be 1, got ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["flag", "key"])
    def test_jobs_above_one_rejected(self, workspace, capsys, where):
        # Fits run one at a time; the flag and key stay, and accept only 1.
        tmp_path, config_file = workspace
        argv = ["fit", "--config", str(config_file), "--out", str(tmp_path / "out")]
        if where == "flag":
            argv += ["--jobs", "2"]
        else:
            config_file.write_text(config_file.read_text() + "jobs = 2\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "config error: jobs must be 1, got 2: fits run one at a time, in one thread\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("fit", "structure distance_import@1100 needs dyadic series 'distance'; "
                    "add a dyadic.distance entry to the config"),
            ("scan-cutoff", "scan needs dyadic series 'distance'; "
                            "add a dyadic.distance entry to the config"),
        ],
        ids=["fit", "scan-cutoff"],
    )
    def test_missing_dyadic_series_named(self, workspace, capsys, command, message):
        tmp_path, config_file = workspace
        text = config_file.read_text().replace("dyadic.distance = data/distance.csv\n", "")
        text = text.replace("candidates = ", "candidates = distance_import:1100, ")
        config_file.write_text(text)
        argv = [command, "--config", str(config_file), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["fit", "select", "scan-cutoff", "diagnose"])
    def test_missing_dyadic_series_checked_before_input(self, workspace, capsys, command):
        # The edges file is broken too: the series check must come first,
        # and fit must not have dropped the stored report.
        tmp_path, config_file = workspace
        text = config_file.read_text().replace("dyadic.distance = data/distance.csv\n", "")
        text = text.replace("candidates = ", "candidates = distance_import:1100, ")
        text = text.replace("diagnose_structure = full_activity", "diagnose_structure = distance_import:1100")
        config_file.write_text(text)
        with open(tmp_path / "data" / "edges.csv", "a", encoding="utf-8") as fh:
            fh.write("x,N000,N001,1\n")
        report = tmp_path / "out" / "fit_report.json"
        report.parent.mkdir()
        report.write_text("{}\n")
        argv = [command, "--config", str(config_file), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        reader = "scan" if command == "scan-cutoff" else "structure distance_import@1100"
        assert capsys.readouterr().err == (
            f"config error: {reader} needs dyadic series 'distance'; "
            f"add a dyadic.distance entry to the config\n"
        )
        assert report.read_text() == "{}\n"
        assert sorted(path.name for path in report.parent.iterdir()) == ["fit_report.json"]

    def test_unit_rho_interval_loads(self, workspace):
        tmp_path, config_file = workspace
        config_file.write_text(config_file.read_text() + "rho_interval = unit\n")
        assert load_run_config(config_file).candidates

    def test_spectral_rho_interval_was_removed(self, workspace, capsys):
        tmp_path, config_file = workspace
        config_file.write_text(config_file.read_text() + "rho_interval = spectral\n")
        out = tmp_path / "out"
        assert main(["fit", "--config", str(config_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: rho_interval 'spectral': the spectral policy was removed")
        assert "rho is searched over (-1, 1)" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "select", "scan-cutoff", "diagnose"])
    def test_negative_lag_exits_2_before_input(self, workspace, capsys, monkeypatch, command):
        tmp_path, config_file = workspace
        config_file.write_text(config_file.read_text().replace("lag = 0", "lag = -1"))
        monkeypatch.setattr("netdisturb.cli.load_panel", refuse_to_load)
        out = tmp_path / "out"
        assert main([command, "--config", str(config_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: lag must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("default", ["nan", "-NaN"])
    def test_nan_dyadic_default_exits_2_before_input(self, workspace, capsys, monkeypatch, default):
        # A NaN default would read every unlisted pair as allied (NaN != 0).
        tmp_path, config_file = workspace
        text = config_file.read_text().replace("alliance.default = 0", f"alliance.default = {default}")
        config_file.write_text(text)
        monkeypatch.setattr("netdisturb.cli.load_panel", refuse_to_load)
        monkeypatch.setattr("netdisturb.cli.load_dyadic_csv", refuse_to_load)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(config_file), "--out", str(out)]) == 2
        message = f"config key 'dyadic.alliance.default': a default must be a number, got {default!r}"
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("default", ["inf", "-inf"])
    def test_infinite_dyadic_default_is_valid(self, workspace, default):
        # An absent distance pair may be infinitely far.
        _, config_file = workspace
        text = config_file.read_text().replace("alliance.default = 0", f"alliance.default = {default}")
        config_file.write_text(text)
        assert load_run_config(config_file).dyadic["alliance"].default == float(default)

    def test_sim_spec_validation(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("n_nodes = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing key"):
            load_sim_spec(path)

    def test_negative_sim_lag_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "sim.cfg"
        spec_file.write_text(SIM_SPEC + "lag = -1\n", encoding="utf-8")
        assert main(["simulate", "--spec", str(spec_file), "--out", str(tmp_path / "data")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: invalid simulation spec: lag must be >= 0, got -1\n"
        assert not (tmp_path / "data").exists()


class TestPipeline:
    def test_fit_writes_artifacts(self, workspace):
        tmp_path, config_file = workspace
        out = tmp_path / "fits_out"
        assert main(["fit", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()
        report = json.loads((out / "fit_report.json").read_text())
        assert report["periods_fitted"] == [1, 2, 3, 4]
        assert report["failures"] == []
        for structure in ("sender_attached", "receiver_attached", "full_activity", "rho0"):
            directory = out / "fits" / structure
            assert (directory / "coefficients.csv").is_file()
            for period in (1, 2, 3, 4):
                payload = json.loads((directory / f"period_{period}.json").read_text())
                assert payload["converged"] is True
                if structure == "rho0":
                    assert payload["rho_hat"] == 0.0

    def test_fit_rerun_is_byte_identical(self, workspace):
        tmp_path, config_file = workspace
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["fit", "--config", str(config_file), "--out", str(out1)]) == 0
        assert main(["fit", "--config", str(config_file), "--out", str(out2)]) == 0
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_select_artifacts(self, workspace):
        tmp_path, config_file = workspace
        out = tmp_path / "sel_out"
        assert main(["select", "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "aggregated.csv").read_text().splitlines()
        assert lines[0] == "structure,aic_sum,delta"
        assert len(lines) == 5
        payload = json.loads((out / "selection.json").read_text())
        assert payload["aggregated"]["winner"] in {
            "sender_attached", "receiver_attached", "full_activity", "rho0",
        }
        assert (out / "weights.csv").is_file()
        assert (out / "weights_smoothed.csv").is_file()

    def test_scan_artifacts(self, workspace):
        tmp_path, config_file = workspace
        out = tmp_path / "scan_out"
        code = main(["scan-cutoff", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "cutoff_km,morans_i,defined"
        assert len(lines) == 1 + 15  # 200..3000 step 200
        summary = json.loads((out / "scan.json").read_text())
        assert 200.0 <= summary["best_cutoff_km"] <= 3000.0

    def test_diagnose_artifacts(self, workspace):
        tmp_path, config_file = workspace
        out = tmp_path / "diag_out"
        assert main(["diagnose", "--config", str(config_file), "--out", str(out)]) == 0
        for name in ("qq.csv", "hist.csv", "kde.csv", "tradecorr.csv"):
            assert (out / name).is_file(), name
        qq = (out / "qq.csv").read_text().splitlines()
        assert qq[0] == "theoretical,empirical"

    def test_jobs_one_runs(self, workspace):
        tmp_path, config_file = workspace
        plain, one = tmp_path / "plain", tmp_path / "one"
        assert main(["select", "--config", str(config_file), "--out", str(plain)]) == 0
        argv = ["select", "--config", str(config_file), "--out", str(one), "--jobs", "1"]
        assert main(argv) == 0
        for name in SELECT_FILES + ("manifest.json",):
            assert (plain / name).read_bytes() == (one / name).read_bytes(), name

    def test_fit_writes_each_fit_as_it_returns(self, workspace, monkeypatch):
        # Every fit file of a period is written before the next period's
        # design is built.
        tmp_path, config_file = workspace
        events = []
        for name in ("build_design", "write_fit_json"):
            original = getattr(netdisturb.cli, name)

            def recording(*args, _name=name, _original=original, **kwargs):
                events.append((_name, args[0]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(f"netdisturb.cli.{name}", recording)
        assert main(["fit", "--config", str(config_file), "--out", str(tmp_path / "out")]) == 0
        designs = [k for k, (name, _) in enumerate(events) if name == "build_design"]
        assert [events[k][1].period for k in designs] == [1, 2, 3, 4]
        for period, (start, end) in enumerate(zip(designs, designs[1:] + [len(events)]), 1):
            written = sorted(Path(path).relative_to(tmp_path / "out" / "fits").as_posix()
                             for _, path in events[start + 1 : end])
            assert written == sorted(
                f"{structure}/period_{period}.json"
                for structure in ("sender_attached", "receiver_attached", "full_activity", "rho0")
            ), period

    def test_simulate_deterministic(self, tmp_path):
        spec_file = tmp_path / "sim.cfg"
        spec_file.write_text(SIM_SPEC, encoding="utf-8")
        assert main(["simulate", "--spec", str(spec_file), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--spec", str(spec_file), "--out", str(tmp_path / "b")]) == 0
        for name in ("edges.csv", "roster.csv", "x1.csv", "x2.csv",
                     "alliance.csv", "distance.csv", "truth.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["fit", "--config", str(tmp_path / "none.cfg")])
        assert code == 2
        assert "none.cfg" in capsys.readouterr().err

    def test_manifest_contents(self, workspace):
        tmp_path, config_file = workspace
        out = tmp_path / "m_out"
        assert main(["fit", "--config", str(config_file), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["config_file"] == "run.cfg"
        assert manifest["seed"] == 7
        assert len(manifest["config_sha256"]) == 64
        assert "jobs" not in manifest and "scipy_version" not in manifest

    def test_manifest_identifies_the_input_data(self, workspace):
        tmp_path, config_file = workspace
        first, second = tmp_path / "before", tmp_path / "after"
        assert main(["fit", "--config", str(config_file), "--out", str(first)]) == 0
        edges = tmp_path / "data" / "edges.csv"
        edges.write_text(edges.read_text() + "\n", encoding="utf-8")
        assert main(["fit", "--config", str(config_file), "--out", str(second)]) == 0
        before = json.loads((first / "manifest.json").read_text())
        after = json.loads((second / "manifest.json").read_text())
        assert sorted(before["input_sha256"]) == [
            "dyadic.alliance", "dyadic.distance", "edges", "nodal.x1", "nodal.x2", "roster",
        ]
        assert before["input_sha256"]["edges"] != after["input_sha256"]["edges"]
        assert before["input_sha256"]["roster"] == after["input_sha256"]["roster"]
        assert str(tmp_path) not in (first / "manifest.json").read_text()

    def test_unidentified_rho_reported_as_failure(self, workspace, capsys):
        # A 1 km cutoff relates no pair of nodes, so W is all zero and rho
        # is not identified in any period.
        tmp_path, config_file = workspace
        text = config_file.read_text().replace(
            "candidates = sender_attached, receiver_attached, full_activity, rho0",
            "candidates = full_activity, distance_import:1",
        )
        config_file.write_text(text, encoding="utf-8")
        out = tmp_path / "unidentified"
        assert main(["fit", "--config", str(config_file), "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert [(f["period"], f["structure"]) for f in report["failures"]] == [
            (period, "distance_import@1") for period in (1, 2, 3, 4)
        ]
        for failure in report["failures"]:
            assert failure["error"] == "rho is not identified: W gives no flow a neighbour"
        assert not (out / "fits" / "distance_import@1").exists()
        assert "rho is not identified" in capsys.readouterr().err

    def test_select_drops_a_candidate_that_never_fits(self, workspace):
        # distance_import@1 leaves rho unidentified in every period; select
        # drops it with the fit's reason and still compares the others.
        tmp_path, config_file = workspace
        text = config_file.read_text().replace(
            "candidates = sender_attached, receiver_attached, full_activity, rho0",
            "candidates = full_activity, distance_import:1",
        )
        config_file.write_text(text, encoding="utf-8")
        out = tmp_path / "dropped"
        assert main(["select", "--config", str(config_file), "--out", str(out)]) == 0
        payload = json.loads((out / "selection.json").read_text())
        assert payload["aggregated"]["winner"] == "full_activity"
        assert payload["structures"] == ["full_activity"]
        assert payload["excluded_periods"] == []
        assert payload["dropped_structures"] == [
            {
                "structure": "distance_import@1",
                "reason": "fit failed for distance_import@1: rho is not identified: "
                "W gives no flow a neighbour",
            }
        ]

    def test_no_command_forms_the_nonzeros_of_a_built_w(self, workspace, monkeypatch):
        # Fits, scans and diagnostics read a built W through its factors;
        # its columns, from which the neighbour sets and the dense entries
        # are read, are only for inspection.
        def refuse(self):
            raise AssertionError("a command formed the nonzeros of a built W")

        monkeypatch.setattr(WeightMatrix, "_column_blocks", refuse)
        tmp_path, config_file = workspace
        shared = tmp_path / "shared"
        assert main(["fit", "--config", str(config_file), "--out", str(shared)]) == 0
        for command in ("select", "scan-cutoff", "diagnose"):
            for out in (shared, tmp_path / f"fresh-{command}"):
                assert main([command, "--config", str(config_file), "--out", str(out)]) == 0


SELECT_FILES = ("selection.json", "aggregated.csv", "weights.csv", "weights_smoothed.csv")
SCAN_FILES = ("scan.csv", "scan.json")
DIAGNOSE_FILES = ("qq.csv", "hist.csv", "kde.csv", "tradecorr.csv")


def refuse_to_fit(*args, **kwargs):
    raise AssertionError("a stored fit was computed again")


def refuse_to_load(*args, **kwargs):
    raise AssertionError("an input was read although the fits are stored")


class TestFitReuse:
    """select and diagnose read the fits `fit` stored for the same run; scan-cutoff fits its own OLS residuals.

    A stored fit holds its estimates only, and diagnose forms its residuals
    again from the period it loads.
    """

    def test_reuse_writes_the_bytes_of_a_fresh_run(self, workspace):
        tmp_path, config_file = workspace
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["fit", "--config", str(config_file), "--out", str(reused)]) == 0
        for command, names in (
            ("select", SELECT_FILES), ("scan-cutoff", SCAN_FILES), ("diagnose", DIAGNOSE_FILES),
        ):
            for out in (reused, fresh):
                assert main([command, "--config", str(config_file), "--out", str(out)]) == 0
            for name in names:
                assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
        assert not (fresh / "fit_report.json").exists()

    def test_stored_fits_are_not_computed_again(self, workspace, monkeypatch):
        tmp_path, config_file = workspace
        out = tmp_path / "out"
        assert main(["fit", "--config", str(config_file), "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert report["fingerprint"] == {
            "package_version": netdisturb.__version__,
            "config_sha256": manifest["config_sha256"],
            "input_sha256": manifest["input_sha256"],
        }
        monkeypatch.setattr("netdisturb.cli.fit", refuse_to_fit)
        monkeypatch.setattr("netdisturb.cli.fit_ols", refuse_to_fit)
        for command in ("select", "diagnose"):
            assert main([command, "--config", str(config_file), "--out", str(out)]) == 0
        # The scan reads no stored fit: an OLS fit of a period costs less than reading one.
        calls = []
        original = netdisturb.sem.fit_ols
        monkeypatch.setattr(
            "netdisturb.cli.fit_ols", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        assert main(["scan-cutoff", "--config", str(config_file), "--out", str(out)]) == 0
        assert len(calls) == len(report["periods_fitted"]) == 4

    def test_diagnose_reads_a_stored_fit_that_holds_residuals(self, workspace, monkeypatch):
        # Fits were once stored with every SemFit field, the residuals
        # included.  Such a file still reads back, and diagnose on it writes
        # the bytes of a fresh run.
        tmp_path, config_file = workspace
        stored, fresh = tmp_path / "stored", tmp_path / "fresh"
        assert main(["fit", "--config", str(config_file), "--out", str(stored)]) == 0
        config = load_run_config(config_file)
        structure = config.diagnose_structure
        for data in _periods(config, [structure]):
            weight = build_weight_matrix(structure, data.index, data.dyadic.get(structure.dyadic_series))
            problem = SemProblem(y=data.y, X=data.design, W=weight)
            fitted = fit(problem)
            u_hat, eps_hat = residuals(problem, fitted.beta_hat, fitted.rho_hat)
            path = stored / "fits" / structure.structure_id / f"period_{data.period}.json"
            estimates = json.loads(path.read_text(encoding="utf-8"))
            # Every field, with the residuals where they stood: after aic.
            every = {f.name: getattr(fitted, f.name) for f in dataclasses.fields(fitted)}
            head = dict(list(every.items())[: list(every).index("aic") + 1])
            write_json(path, {**head, "u_hat": u_hat, "eps_hat": eps_hat, **every})
            old = json.loads(path.read_text(encoding="utf-8"))
            assert len(old.pop("u_hat")) == len(old.pop("eps_hat")) == data.index.n
            assert old == estimates
        monkeypatch.setattr("netdisturb.cli.fit", refuse_to_fit)
        assert main(["diagnose", "--config", str(config_file), "--out", str(stored)]) == 0
        monkeypatch.undo()
        assert main(["diagnose", "--config", str(config_file), "--out", str(fresh)]) == 0
        for name in DIAGNOSE_FILES:
            assert (stored / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_select_reads_no_input_when_the_fits_are_stored(self, workspace, monkeypatch):
        tmp_path, config_file = workspace
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["fit", "--config", str(config_file), "--out", str(reused)]) == 0
        assert main(["select", "--config", str(config_file), "--out", str(fresh)]) == 0
        for loader in ("load_panel", "load_nodal_csv", "load_dyadic_csv"):
            monkeypatch.setattr(f"netdisturb.cli.{loader}", refuse_to_load)
        assert main(["select", "--config", str(config_file), "--out", str(reused)]) == 0
        for name in SELECT_FILES:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

    @pytest.mark.parametrize("edited", ["edges", "config"])
    def test_an_edited_run_computes_its_fits(self, workspace, monkeypatch, edited):
        tmp_path, config_file = workspace
        out = tmp_path / "out"
        assert main(["fit", "--config", str(config_file), "--out", str(out)]) == 0
        # A trailing blank line or comment changes the file's hash, not its data.
        path = config_file if edited == "config" else tmp_path / "data" / "edges.csv"
        path.write_text(path.read_text() + ("# edited\n" if edited == "config" else "\n"))
        calls = []
        original = netdisturb.cli.fit
        monkeypatch.setattr(
            "netdisturb.cli.fit", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        assert main(["select", "--config", str(config_file), "--out", str(out)]) == 0
        assert len(calls) == 3 * 4  # three spatial candidates, four periods

    def test_a_listed_failure_stays_failed_over_a_stale_fit_file(self, workspace, monkeypatch):
        tmp_path, config_file = workspace
        text = config_file.read_text().replace(
            "candidates = sender_attached, receiver_attached, full_activity, rho0",
            "candidates = full_activity, distance_import:1",
        )
        config_file.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["fit", "--config", str(config_file), "--out", str(out)]) == 0
        # A fit file an older run might have left for a pair that now fails.
        stale = out / "fits" / "distance_import@1" / "period_1.json"
        stale.parent.mkdir(parents=True)
        stale.write_bytes((out / "fits" / "full_activity" / "period_1.json").read_bytes())
        monkeypatch.setattr("netdisturb.cli.fit", refuse_to_fit)
        assert main(["select", "--config", str(config_file), "--out", str(out)]) == 0
        payload = json.loads((out / "selection.json").read_text())
        assert payload["structures"] == ["full_activity"]
        assert payload["dropped_structures"] == [
            {
                "structure": "distance_import@1",
                "reason": "fit failed for distance_import@1: rho is not identified: "
                "W gives no flow a neighbour",
            }
        ]

    def test_scan_reports_a_failed_ols_fit_as_before(self, workspace, capsys):
        # x3 is x1 under another name, so the design has two equal columns.
        tmp_path, config_file = workspace
        text = config_file.read_text().replace(
            "recipe = x1:sender, x2:receiver", "nodal.x3 = data/x1.csv\nrecipe = x1:sender, x3:sender"
        )
        config_file.write_text(text, encoding="utf-8")
        fitted, fresh = tmp_path / "fitted", tmp_path / "fresh"
        assert main(["fit", "--config", str(config_file), "--out", str(fitted)]) == 0
        capsys.readouterr()
        errors = []
        for out in (fitted, fresh):
            code = main(["scan-cutoff", "--config", str(config_file), "--out", str(out)])
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: design matrix is rank deficient; collinear columns:")


@pytest.mark.parametrize(
    "command, dyadic_term, loaded",
    [
        ("fit", "", ["alliance"]),
        ("select", "", ["alliance"]),
        ("scan-cutoff", "", ["distance"]),
        ("diagnose", "", []),
        ("scan-cutoff", ", alliance:dyadic", ["alliance", "distance"]),
        ("diagnose", ", alliance:dyadic", ["alliance"]),
    ],
    ids=["fit", "select", "scan-cutoff", "diagnose", "scan-cutoff-term", "diagnose-term"],
)
def test_a_command_loads_only_the_dyadic_series_it_reads(
    workspace, monkeypatch, command, dyadic_term, loaded
):
    # The candidates read alliance, the scan distance, full_activity neither.
    tmp_path, config_file = workspace
    text = config_file.read_text().replace(
        "candidates = sender_attached, receiver_attached, full_activity, rho0",
        "candidates = alliance_import, full_activity, rho0",
    )
    text = text.replace("x2:receiver", "x2:receiver" + dyadic_term)
    config_file.write_text(text, encoding="utf-8")
    names = []
    original = netdisturb.cli.load_dyadic_csv

    def recording(path, name, *args):
        names.append(name)
        return original(path, name, *args)

    monkeypatch.setattr("netdisturb.cli.load_dyadic_csv", recording)
    assert main([command, "--config", str(config_file), "--out", str(tmp_path / "out")]) == 0
    assert names == loaded
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert {"dyadic.alliance", "dyadic.distance"} <= set(manifest["input_sha256"])


def demo_pipeline_config(tmp_path, structure):
    """The demos/pipeline panel simulated into tmp_path, and its run config with one structure."""
    demo = Path(__file__).parents[1] / "demos" / "pipeline"
    assert main(["simulate", "--spec", str(demo / "sim.cfg"), "--out", str(tmp_path / "data")]) == 0
    config_file = tmp_path / "run.cfg"
    text = (demo / "run.cfg").read_text(encoding="utf-8")
    for key in ("candidates", "diagnose_structure"):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {structure}", text)
    config_file.write_text(text, encoding="utf-8")
    return config_file


@pytest.mark.parametrize("structure, reused_builds", [("full_activity", 12), ("distance_import:1", 0)])
def test_diagnose_builds_each_period_w_once(tmp_path, monkeypatch, structure, reused_builds):
    # The demos/pipeline panel has 12 periods.  Under distance_import:1 no
    # flow has a neighbour, so every fit fails; a stored failure needs no W.
    config_file = demo_pipeline_config(tmp_path, structure)
    periods = []
    original = netdisturb.cli.build_weight_matrix
    monkeypatch.setattr(
        "netdisturb.cli.build_weight_matrix",
        lambda spec, index, *a: periods.append(index.period) or original(spec, index, *a),
    )

    def builds(out):
        periods.clear()
        status = main(["diagnose", "--config", str(config_file), "--out", str(out)])
        assert status == (0 if structure == "full_activity" else 1)
        return periods.copy()

    assert builds(tmp_path / "fresh") == list(range(1, 13))
    assert main(["fit", "--config", str(config_file), "--out", str(tmp_path / "reused")]) == 0
    assert builds(tmp_path / "reused") == list(range(1, 13))[:reused_builds]


def test_diagnose_takes_two_w_products_per_period_beside_the_fit(workspace, monkeypatch):
    # A fresh diagnose takes two W products per period: the fit's one
    # W [y X], and one W u_hat that serves both the whitened residuals and
    # tradecorr.csv.  On stored fits only the W u_hat is left.
    tmp_path, config_file = workspace
    products = []
    original = WeightMatrix.__matmul__
    monkeypatch.setattr(WeightMatrix, "__matmul__", lambda W, v: products.append(1) or original(W, v))
    assert main(["diagnose", "--config", str(config_file), "--out", str(tmp_path / "fresh")]) == 0
    assert len(products) == 2 * 4
    assert main(["fit", "--config", str(config_file), "--out", str(tmp_path / "reused")]) == 0
    products.clear()
    assert main(["diagnose", "--config", str(config_file), "--out", str(tmp_path / "reused")]) == 0
    assert len(products) == 1 * 4


def test_unidentified_fits_take_no_w_product(tmp_path, monkeypatch):
    # Under distance_import:1 no flow of the demos/pipeline panel has a
    # neighbour, so each of the 12 periods' fits stops at its check that rho
    # is identified, before the fit's W [y X] is formed.
    config_file = demo_pipeline_config(tmp_path, "distance_import:1")
    products = []
    original = WeightMatrix.__matmul__
    monkeypatch.setattr(WeightMatrix, "__matmul__", lambda W, v: products.append(1) or original(W, v))
    assert main(["diagnose", "--config", str(config_file), "--out", str(tmp_path / "fresh")]) == 1
    assert products == []


def test_diagnose_names_a_degenerate_fit(workspace, monkeypatch):
    # A converged fit with sigma^2 near 0 is left out of the diagnostics
    # under its own reason, not as a fit that did not converge.
    tmp_path, config_file = workspace
    original = netdisturb.cli.fit
    monkeypatch.setattr(
        "netdisturb.cli.fit",
        lambda problem: dataclasses.replace(original(problem), degenerate=problem.W.index.period == 2),
    )
    out = tmp_path / "degenerate"
    assert main(["diagnose", "--config", str(config_file), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["failures"] == [{"period": 2, "error": "fit is degenerate"}]


def run_fresh_interpreter(code, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(netdisturb.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout.strip()


SCIPY_SUBMODULES = (
    "scipy.stats", "scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse",
)


@pytest.mark.parametrize("module", SCIPY_SUBMODULES + ("scipy", "concurrent.futures"))
def test_cli_import_leaves_scipy_module_out(module):
    # Every CLI command starts a fresh interpreter, and a command pays for
    # each of these imports only where it uses the module; no stage uses
    # the bare scipy package or a thread pool.
    code = f"import sys, netdisturb.cli; print({module!r} in sys.modules)"
    assert run_fresh_interpreter(code) == "False"


LIBRARY_RUN = """
import sys
from netdisturb import (
    DyadicSeries, FlowIndex, NeighborhoodSpec, SemProblem, SimSpec, build_weight_matrix, fit,
    fit_ols, histogram, kde, log_flow_vector, neighborhood, qq_pairs, simulate,
)
from netdisturb.sem import residuals
from netdisturb.weights import DISTANCE_KINDS, KINDS

index = FlowIndex(period=1, dyads=(("A", "B"), ("A", "C"), ("B", "A"), ("C", "B")))
pairs = [(a, b) for a in "ABC" for b in "ABC" if a < b]
series = {
    "alliance": DyadicSeries("alliance", True, {(a, b, 1): 1.0 for a, b in pairs}),
    "distance": DyadicSeries("distance", True, {(a, b, 1): 500.0 for a, b in pairs}),
}
for kind in KINDS:
    spec = NeighborhoodSpec(kind, cutoff_km=1000.0 if kind in DISTANCE_KINDS else None)
    dyadic = series.get(spec.dyadic_series)
    assert build_weight_matrix(spec, index, dyadic).entries.shape == (4, 4)
    assert len(neighborhood(spec, index, dyadic)) == 4
result = simulate(SimSpec(
    n_nodes=10, n_periods=1, density=0.4, structure=NeighborhoodSpec("full_activity"),
    rho=0.4, beta=(1.0, 2.0, -1.0), sigma=1.0, seed=3,
))
problem = SemProblem(
    y=log_flow_vector(result.panel[0], result.indices[1]), X=result.designs[1], W=result.weights[1]
)
fitted = fit(problem)
fit_ols(problem)
u_hat, eps_hat = residuals(problem, fitted.beta_hat, fitted.rho_hat)
qq_pairs(eps_hat)
histogram(eps_hat)
kde(eps_hat)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_every_exported_name_resolves_once():
    # The package's public names: each one importable, none listed twice.
    exported = netdisturb.__all__
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(netdisturb, name)]
    assert missing == []
    assert "DenseWeight" in exported and "Spectrum" not in exported


def test_library_runs_without_scipy():
    # scipy is a test-only dependency: building every kind's W, its
    # inspection views, the fits, simulation and the diagnostics load none of it.
    assert run_fresh_interpreter(LIBRARY_RUN).splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "command, stored",
    [
        ("simulate", False),
        ("fit", False),
        ("select", True),
        ("scan-cutoff", True),
        ("diagnose", True),
        ("diagnose", False),
    ],
)
def test_every_command_leaves_scipy_submodules_out(workspace, command, stored):
    # The rho search, the p-values and the normal quantiles all run in the
    # package; ``stored`` runs `fit` first, so that the command reuses its fits.
    tmp_path, config_file = workspace
    if command == "simulate":
        argv = ["simulate", "--spec", str(tmp_path / "sim.cfg"), "--out", str(tmp_path / "d2")]
    else:
        out = tmp_path / "out"
        if stored:
            assert main(["fit", "--config", str(config_file), "--out", str(out)]) == 0
        argv = [command, "--config", str(config_file), "--out", str(out)]
    code = (
        "import sys\n"
        "from netdisturb.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        f"print([m for m in {SCIPY_SUBMODULES!r} if m in sys.modules])"
    )
    assert run_fresh_interpreter(code, *argv).splitlines()[-1] == "[]"
