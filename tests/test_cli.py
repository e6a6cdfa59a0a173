import contextlib
import csv
import io
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttiga.driver as driver
from ttiga import cli
from ttiga.cli import check_artifact, main

from test_tensor_train import container_bytes, ttc2_bytes

CUBE_RUN = {
    "geometry": "unit_cube",
    "degree": 1,
    "elements": 2,
    "source": "manufactured_sines",
    "analytic": "cube_sines",
}


def write_config(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def read_csv(path: Path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSolveCommand:
    def test_smoke_run(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "seed": 0, "runs": [CUBE_RUN]},
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "unit_cube_p1_e2.json").read_text())
        assert "l2_error" in report and report["l2_error"] is not None
        assert report["rel_l2_error"] is not None
        assert sorted(report["cross_evals"]) == ["K", "f"]
        rows = read_csv(tmp_path / "out" / "experiment.csv")
        assert len(rows) == 1
        assert rows[0]["geometry"] == "unit_cube"

    def test_zero_eps_rejected(self, tmp_path):
        bad = dict(CUBE_RUN, eps_solve=0.0)
        cfg = write_config(tmp_path / "cfg.json", {"runs": [bad]})
        assert main(["solve", "--config", str(cfg)]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"runs": [dict(CUBE_RUN, tolerance=1e-3)]}
        )
        assert main(["solve", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "solver",
        [{"direct_solve_max": 10}, {"direct_solve_maxx": 10}, {"verbose": True},
         {"kick_rank": "x"}, {"max_sweeps": 0}, {"initial": 1},
         {"max_rank": 3}, {"cg_maxiter": 10}, {}, {"kick_rank": 2, "max_sweeps": 20}],
    )
    def test_bad_solver_option_rejected(self, tmp_path, capsys, solver):
        # AMEn takes no options: a run holding any, even none, is refused
        cfg = write_config(
            tmp_path / "cfg.json", {"runs": [dict(CUBE_RUN, solver=solver)]}
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown keys in run: ['solver']")

    def test_settings_are_the_documented_ones(self):
        # a new setting changes these sets and the README's schema together
        assert {f.name for f in fields(driver.SolveConfig)} == {
            "geometry", "geometry_params", "degree", "elements", "eps_cross",
            "eps_solve", "eps_round", "bc", "source", "analytic", "seed",
        }
        assert cli._BENCH_FILE_KEYS == {
            "output_dir", "seed", "degree", "elements", "geometries", "source",
            "eps_cross", "eps_solve", "eps_round", "crossover",
        }

    def test_bad_run_fails_before_any_solve(self, tmp_path, monkeypatch, capsys):
        """A bad geometry in a later run stops the file before the first
        run is solved."""
        calls = []
        monkeypatch.setattr(cli, "solve_poisson", calls.append)
        bad = {"geometry": "ring", "geometry_params": {"r_in": 2.0}}
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [CUBE_RUN, bad]},
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: need 0 < r_in < r_out\n"
        assert not calls and not (tmp_path / "out").exists()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"runs": [CUBE_RUN], "workers": 4}
        )
        assert main(["solve", "--config", str(cfg)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1

    def test_ladder_csv_and_slope(self, tmp_path):
        runs = [dict(CUBE_RUN, elements=e) for e in (2, 4, 8, 16)]
        cfg = write_config(
            tmp_path / "ladder.json",
            {"output_dir": str(tmp_path / "out"), "seed": 0, "runs": runs},
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "out" / "experiment.csv")
        assert len(rows) == 4
        errs = [float(r["l2_error"]) for r in rows]
        elems = [int(r["elems"]) for r in rows]
        slope = driver.fit_slope(elems, errs)
        assert 1.5 < slope < 2.5

    def test_ring_ladder_with_bc(self, tmp_path):
        bc = {
            "faces": {
                "1:0": {"type": "dirichlet", "value": 1.0},
                "1:1": {"type": "dirichlet", "value": 2.0},
            }
        }
        runs = [
            {
                "geometry": "ring",
                "degree": 2,
                "elements": e,
                "source": "zero",
                "analytic": "ring_radial",
                "bc": bc,
            }
            for e in (2, 4, 8, 16)
        ]
        cfg = write_config(
            tmp_path / "ring.json",
            {"output_dir": str(tmp_path / "out"), "seed": 0, "runs": runs},
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "out" / "experiment.csv")
        assert len(rows) == 4
        errs = [float(r["l2_error"]) for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        slope = driver.fit_slope([int(r["elems"]) for r in rows], errs)
        assert np.isfinite(slope)

    def test_bad_bc_rejected(self, tmp_path):
        for faces in (
            {"9": {"type": "dirichlet"}},
            {"0:0": {"type": "sticky"}},
            {"0:0": {"type": "natural", "value": 3.0}},
            {"5:0": {"type": "dirichlet"}},
        ):
            cfg = write_config(
                tmp_path / "bad.json",
                {"runs": [dict(CUBE_RUN, bc={"faces": faces})]},
            )
            assert main(["solve", "--config", str(cfg)]) == 1

    def test_parallel_jobs(self, tmp_path):
        runs = [dict(CUBE_RUN, elements=e) for e in (2, 4)]
        cfg = write_config(
            tmp_path / "par.json",
            {"output_dir": str(tmp_path / "out"), "seed": 0, "runs": runs},
        )
        assert main(["solve", "--config", str(cfg), "--jobs", "2"]) == 0
        assert len(read_csv(tmp_path / "out" / "experiment.csv")) == 2

    def test_determinism_excluding_timings(self, tmp_path):
        cfg_doc = {"seed": 7, "runs": [CUBE_RUN]}
        rows = []
        for sub in ("a", "b"):
            cfg = write_config(tmp_path / f"{sub}.json", cfg_doc)
            out = tmp_path / sub
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            rows.append(read_csv(out / "experiment.csv"))
        for ra, rb in zip(rows[0], rows[1]):
            for key in ra:
                if key.startswith("t_"):
                    continue
                assert ra[key] == rb[key], key

    def test_field_dump(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [CUBE_RUN]},
        )
        assert main(["solve", "--config", str(cfg), "--field-samples", "5"]) == 0
        field = tmp_path / "out" / "unit_cube_p1_e2_field.txt"
        lines = field.read_text().strip().splitlines()
        assert len(lines) == 125
        assert all(len(line.split()) == 4 for line in lines)

    def test_flag_overrides_file(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [CUBE_RUN]},
        )
        assert main(
            ["solve", "--config", str(cfg), "--eps-solve", "1e-6", "--seed", "3"]
        ) == 0
        report = json.loads((tmp_path / "out" / "unit_cube_p1_e2.json").read_text())
        assert report["eps_solve"] == 1e-6
        assert report["seed"] == 3

    @pytest.mark.parametrize(
        "flag,value",
        [("--eps-solve", "5"), ("--eps-solve", "-1"), ("--eps-cross", "2"),
         ("--seed", "-1")],
    )
    def test_bad_override_rejected(self, tmp_path, capsys, flag, value):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [CUBE_RUN]},
        )
        assert main(["solve", "--config", str(cfg), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:].replace("-", "_") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag,value,low", [("--jobs", "0", 1), ("--field-samples", "-2", 0)]
    )
    def test_bad_count_rejected(self, tmp_path, capsys, flag, value, low):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [CUBE_RUN]},
        )
        assert main(["solve", "--config", str(cfg), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be at least {low}, got {value}")
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "field,value",
        [("n_gauss", 1), ("n_gauss", [2, 2, 1]), ("n_gauss", [2, 2]),
         ("n_gauss", "3"), ("n_gauss", 2.5), ("rank_cap", 0), ("rank_cap", 1.5),
         ("rank_cap", None), ("degree", "x"), ("degree", 1.5), ("degree", True),
         ("elements", [2, 2]), ("elements", 2.0), ("geometry_params", 5)]
        + [(eps, value) for eps in ("eps_cross", "eps_solve", "eps_round")
           for value in ("1e-8", None, [1], True)]
        # the quadrature and the cross rank cap are fixed, so even the
        # values every run used are refused
        + [("n_gauss", 2), ("n_gauss", None), ("rank_cap", 64)],
    )
    def test_bad_run_value_rejected(self, tmp_path, capsys, field, value):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [dict(CUBE_RUN, **{field: value})]},
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "run",
        [dict(CUBE_RUN, bc={"faces": faces}) for faces in (
            [1],
            {"0:0": 5},
            {"0:0": {"type": "dirichlet", "value": "abc"}},
            # json.dumps writes these as the NaN and Infinity tokens
            {"0:0": {"type": "dirichlet", "value": float("nan")}},
            {"0:0": {"type": "dirichlet", "value": float("inf")}},
            {"0:0": {"type": "dirichlet", "value": True}},
            {"0:0": {"type": "dirichlet", "value": None}},
        )] + [
            {"geometry": "lshape", "degree": 1, "elements": 2,
             "geometry_params": {"zmax": zmax}}
            for zmax in ("a", float("inf"), True)
        ] + [
            # an analytic solution of another problem
            dict(CUBE_RUN, geometry="ring"),
            {"geometry": "ring", "degree": 2, "elements": 2, "source": "zero",
             "analytic": "ring_radial",
             "bc": {"faces": {"1:0": {"type": "dirichlet", "value": 1.0}}}},
        ],
    )
    def test_malformed_run_exits_with_message(self, tmp_path, capsys, run):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [run]},
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("label", ["../escaped", "a/b", "a\\b", ".", "..", "", 5, None])
    def test_bad_label_rejected(self, tmp_path, capsys, label):
        """A label names the run's report inside output_dir: a label that
        is not a plain file name is refused before anything is written."""
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [dict(CUBE_RUN, label=label)]},
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run label") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_label_names_report(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"),
             "runs": [dict(CUBE_RUN, label="cube.e2")]},
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "cube.e2.json").exists()

    @pytest.mark.parametrize(
        "field,value",
        [("degree", [1, 2, 1]),
         ("bc", {"faces": {"0:0": {"type": "dirichlet", "value": -1.5}}}),
         ("bc", {"faces": {"0:0": {"type": "dirichlet", "value": 0}}})],
        ids=["degree-value3", "bc-value4", "bc-value5"],
    )
    def test_good_run_value_accepted(self, tmp_path, field, value):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [dict(CUBE_RUN, **{field: value})]},
        )
        assert main(["solve", "--config", str(cfg)]) == 0


class TestBenchCommand:
    def test_small_bench(self, tmp_path, monkeypatch):
        doc = {
            "output_dir": str(tmp_path / "bench"),
            "seed": 0,
            "degree": 1,
            "elements": [2],
            "geometries": ["unit_cube", "ring"],
            "source": "sin_pi_xyz",
            "crossover": {
                "geometry": "unit_cube",
                "degree": 1,
                "elements": [2, 4],
                "source": "sin_pi_xyz",
            },
        }
        # make the 4-element oracle run exceed the guard to exercise refusal
        monkeypatch.setattr(driver, "FULL_GRID_DOF_GUARD", 100)
        cfg = write_config(tmp_path / "bench.json", doc)
        assert main(["bench", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "bench" / "bench.csv")
        assert {r["geometry"] for r in rows} == {"unit_cube", "ring"}
        assert all(r["status"] == "ok" for r in rows)
        summary = json.loads((tmp_path / "bench" / "crossover.json").read_text())
        statuses = [p["status"] for p in summary["ladder"]]
        assert "oracle-refused" in statuses
        assert summary["largest_oracle_dofs"] == 27
        for artifact in sorted((tmp_path / "bench").iterdir()):
            assert main(["check", str(artifact)]) == 0

    def test_failures_recorded_not_fatal(self, tmp_path):
        doc = {
            "output_dir": str(tmp_path / "bench"),
            "degree": 1,
            "elements": [2, 0],  # second entry is invalid
            "geometries": ["unit_cube"],
        }
        cfg = write_config(tmp_path / "bench.json", doc)
        assert main(["bench", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "bench" / "bench.csv")
        assert len(rows) == 2
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("failed: ConfigError: ")
        assert "at least one element" in rows[1]["status"]

    @pytest.mark.parametrize("elements", [None, [0]], ids=["null", "zero"])
    def test_every_rung_rejected_exits_1(self, tmp_path, capsys, elements):
        """A bench whose every rung is rejected before solving is bad input:
        exit 1 with one error line, not 2, the code for non-convergence.
        Each rung is still recorded in the CSV."""
        doc = {
            "output_dir": str(tmp_path / "bench"),
            "degree": 1,
            "elements": elements,
            "geometries": ["unit_cube"],
        }
        cfg = write_config(tmp_path / "bench.json", doc)
        assert main(["bench", "--config", str(cfg)]) == 1
        (row,) = read_csv(tmp_path / "bench" / "bench.csv")
        assert row["status"].startswith("failed: ConfigError: ")
        err = capsys.readouterr().err
        assert err.startswith("error: every bench run was rejected: ")
        assert err.count("\n") == 1

    def test_unconverged_rung_exits_2(self, tmp_path):
        # a rung that ran and did not converge keeps exit code 2
        doc = {
            "output_dir": str(tmp_path / "bench"),
            "degree": 1,
            "elements": [2, 0],
            "geometries": ["unit_cube"],
            "eps_solve": 1e-300,
        }
        cfg = write_config(tmp_path / "bench.json", doc)
        assert main(["bench", "--config", str(cfg)]) == 2
        ok, bad = read_csv(tmp_path / "bench" / "bench.csv")
        assert ok["status"] == "no-convergence"
        assert bad["status"].startswith("failed: ConfigError: ")

    def test_elements_not_a_list(self, tmp_path, capsys):
        """A ladder that is not a list is one rung. A bad crossover rung is
        a config error, found before the bench ladder runs."""
        doc = {
            "output_dir": str(tmp_path / "bench"),
            "degree": 1,
            "elements": None,
            "geometries": ["unit_cube"],
            "crossover": {"geometry": "unit_cube", "degree": 1, "elements": None},
        }
        cfg = write_config(tmp_path / "bench.json", doc)
        assert main(["bench", "--config", str(cfg)]) == 1
        assert not (tmp_path / "bench").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: elements") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,doc,needle",
        [
            ("solve", [CUBE_RUN], "experiment file must be a JSON object"),
            ("solve", 5, "experiment file must be a JSON object"),
            ("solve", {"output_dir": 5, "runs": [CUBE_RUN]}, "output_dir"),
            ("bench", ["ring"], "bench file must be a JSON object"),
            ("bench", 5, "bench file must be a JSON object"),
            ("bench", {"crossover": 5}, "crossover must be a JSON object"),
            ("bench", {"output_dir": 5, "geometries": ["ring"]}, "output_dir"),
            ("bench", {"geometries": "ring"}, "geometries must be a list"),
            ("check", {"crossover": 5}, "crossover must be a JSON object"),
            ("check", {"geometries": "ring"}, "geometries must be a list"),
            ("check", {"output_dir": 5, "runs": [CUBE_RUN]}, "output_dir"),
            ("solve", {"seed": "x", "runs": [dict(CUBE_RUN, seed=0)]}, "seed must"),
            ("check", {"seed": -1, "runs": [dict(CUBE_RUN, seed=0)]}, "seed must"),
            ("check", {"runs": [{"geometry": "torus"}]}, "unknown geometry 'torus'"),
            ("check", {"runs": [{"geometry": "ring", "geometry_params": {"r_in": 2.0}}]},
             "r_in < r_out"),
            ("bench", {"geometries": []}, "geometries must not be empty"),
            ("bench", {"elements": []}, "elements must not be empty"),
            ("bench", {"crossover": {"geometry": "unit_cube", "elements": []}},
             "crossover elements must not be empty"),
            ("bench", {"crossover": {"geometry": "torus"}}, "unknown geometry 'torus'"),
            ("check", {"crossover": {"geometry": "torus"}}, "unknown geometry 'torus'"),
            ("bench", {"geometries": ["ring"], "rank_cap": 64}, "['rank_cap']"),
            ("solve", {"runs": [{"geometry": "hyperboloid", "geometry_params":
                                 {"zmin": -1e308, "zmax": 1e308}}]},
             "orientation check failed"),
        ],
        ids=["solve-list", "solve-number", "solve-output-dir", "bench-list",
             "bench-number", "bench-crossover", "bench-output-dir",
             "bench-geometries", "check-crossover", "check-geometries",
             "check-output-dir", "solve-file-seed", "check-file-seed",
             "check-geometry-name", "check-geometry-params", "bench-no-geometries",
             "bench-no-elements", "bench-no-crossover-rungs",
             "bench-crossover-geometry", "check-crossover-geometry",
             "bench-rank-cap", "solve-overflowing-geometry"],
    )
    def test_malformed_config_file_exits_with_message(
        self, tmp_path, monkeypatch, capsys, command, doc, needle
    ):
        """A config file of the wrong shape exits 1 with one error line,
        never a traceback, and writes nothing."""
        monkeypatch.chdir(tmp_path)  # the default output_dir
        cfg = write_config(tmp_path / "cfg.json", doc)
        argv = [command, str(cfg)] if command == "check" else [command, "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestDumpCommand:
    def test_basis_reproduces_circle_figure(self, tmp_path, capsys):
        knots = "0,0,0,0.25,0.25,0.5,0.5,0.75,0.75,1,1,1"
        s = 1 / np.sqrt(2)
        weights = ",".join(str(w) for w in [1, s, 1, s, 1, s, 1, s, 1])
        assert main(
            [
                "dump", "basis",
                "--knots", knots,
                "--degree", "2",
                "--weights", weights,
                "--samples", "101",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["xi"] + [f"N_{i}" for i in range(9)]
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 1.0
        assert all(abs(v) < 1e-14 for v in first[2:])
        # CSV carries 10 significant digits, so unity holds to that precision
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert abs(sum(vals[1:]) - 1.0) < 5e-9

    def test_geometry_dump_valid(self, tmp_path):
        out = tmp_path / "ring.json"
        assert main(["dump", "geometry", "--name", "ring", "--out", str(out)]) == 0
        assert check_artifact(out) == "geometry-patch"
        doc = json.loads(out.read_text())
        assert np.array(doc["weights"]).min() > 0
        assert np.array(doc["control_points"]).shape == (9, 2, 2, 3)

    def test_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["dump", "nonsense"])

    def test_failed_write_keeps_old_output(self, tmp_path, monkeypatch):
        """A write that fails at the rename leaves the old file as it was
        and no temp file beside it."""
        out = tmp_path / "ring.json"
        out.write_text("old")

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        assert main(["dump", "geometry", "--name", "ring", "--out", str(out)]) == 1
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "old"

    @pytest.mark.parametrize(
        "argv",
        [["dump", "nonsense"], ["solve"],
         ["solve", "--config", "c.json", "--jobs", "x"]],
        ids=["bad-choice", "missing-config", "bad-int"],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        """Exit code 2 is kept for solver non-convergence."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["geometry", "--name", "ring", "--params", "5"],
            ["geometry", "--name", "ring", "--params", "abc"],
            ["basis", "--knots", "0,0,a,1", "--degree", "1"],
            ["basis", "--knots", "0,0,1,1", "--degree", "1", "--weights", "1,x"],
            ["basis", "--knots", "0,0,1,inf,inf", "--degree", "1"],
            ["basis", "--knots", "0,0,0,1,1,1", "--degree", "1"],
            ["basis", "--knots", "0,0,1,1", "--degree", "1", "--weights", "1,inf"],
            ["basis", "--knots", "0,0,1,1", "--degree", "1", "--weights", "1,nan"],
            ["basis", "--knots", "0,0,1,1", "--degree", "1", "--samples", "-5"],
            ["basis", "--knots", "0,0,1,1", "--degree", "1", "--samples", "0"],
        ],
        ids=["params-not-object", "params-not-json", "bad-knot", "bad-weight",
             "inf-knot", "end-knot-repeated", "inf-weight", "nan-weight",
             "samples-negative", "samples-zero"],
    )
    def test_malformed_input_rejected(self, argv, capsys):
        assert main(["dump", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["geometry", "--name", "ring", "--params", '{"r_in": 0.4}'],
            ["basis", "--knots", "0,0,1,1", "--degree", "1", "--weights", "1,2"],
        ],
        ids=["geometry", "basis"],
    )
    def test_wellformed_input_accepted(self, argv, capsys):
        assert main(["dump", *argv]) == 0
        assert capsys.readouterr().out

    def test_tt_info_on_saved_operator(self, tmp_path, monkeypatch):
        """A solve's assembled K, written by save_tt, reads back through
        dump tt-info with the ranks the solve reports."""
        from ttiga.tensor_train import save_tt

        saved, assemble = tmp_path / "K.tt", driver.assemble_stiffness

        def assemble_and_save(*args, **kwargs):
            K, info = assemble(*args, **kwargs)
            save_tt(saved, K)
            return K, info

        monkeypatch.setattr(driver, "assemble_stiffness", assemble_and_save)
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [CUBE_RUN]},
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "unit_cube_p1_e2.json").read_text())
        out = tmp_path / "K.info.json"
        assert main(["dump", "tt-info", "--path", str(saved), "--out", str(out)]) == 0
        info = json.loads(out.read_text())
        assert info["kind"] == "operator"
        assert info["ranks"] == report["ranks_K"]


class TestCheckCommand:
    def test_all_produced_artifacts_validate(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "seed": 0, "runs": [CUBE_RUN]},
        )
        assert main(["solve", "--config", str(cfg), "--field-samples", "4"]) == 0
        produced = list((tmp_path / "out").iterdir()) + [cfg]
        assert produced
        for path in produced:
            assert main(["check", str(path)]) == 0

    def test_shipped_configs_validate(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        found = sorted(root.glob("*.json"))
        assert found, "shipped example configs are missing"
        for cfg in found:
            assert main(["check", str(cfg)]) == 0

    def test_invalid_report_rejected(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"residual": 1.0}))
        assert main(["check", str(bad)]) == 1

    @pytest.mark.parametrize("key", ["l2_error", "rel_l2_error"])
    def test_non_numeric_error_field_rejected(self, tmp_path, key):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "seed": 0, "runs": [CUBE_RUN]},
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / "unit_cube_p1_e2.json"
        doc = json.loads(path.read_text())
        for bad in ("small", True):
            doc[key] = bad
            path.write_text(json.dumps(doc))
            assert main(["check", str(path)]) == 1

    @pytest.mark.parametrize("doc", [
        {"ladder": 5},
        {"ladder": [{"dofs": "x"}]},
        {"ladder": []},
        {"ladder": [3]},
        {"ladder": [{"dofs": True, "tt_time_s": 0.1, "tt_residual": 1e-9,
                     "status": "oracle-refused"}]},
        {"ladder": [{"dofs": 8, "tt_time_s": 0.1, "tt_residual": 1e-9, "status": "done"}]},
        {"ladder": [{"dofs": 8, "tt_time_s": 0.1, "tt_residual": 1e-9, "status": "ok"}]},
        {"ladder": [{"dofs": 8, "tt_time_s": 0.1, "tt_residual": 1e-9,
                     "status": "oracle-refused"}], "largest_oracle_dofs": "8"},
    ], ids=["not_a_list", "bad_dofs", "empty", "entry_not_object", "bool_dofs",
            "unknown_status", "ok_without_oracle", "bad_largest"])
    def test_invalid_crossover_summary_rejected(self, tmp_path, capsys, doc):
        path = write_config(tmp_path / "crossover.json", doc)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("damage", [
        "bad_magic", "truncated_cores", "ttc2_tensor", "ttc2_operator",
        "zero_rank", "zero_mode",
    ])
    @pytest.mark.parametrize("command", ["check", "tt-info"])
    def test_corrupt_container_rejected(self, tmp_path, capsys, damage, command):
        from ttiga.tensor_train import TtTensor, save_tt

        path = tmp_path / "bad.tt"
        if damage == "bad_magic":
            path.write_text("garbage")
        elif damage.startswith("ttc2"):
            path.write_bytes(ttc2_bytes(damage[5:]))
        elif damage == "zero_rank":
            cores = [np.ones((1, 4, 0)), np.ones((0, 5, 1))]
            path.write_bytes(container_bytes(b"TTC3", 0, cores))
        elif damage == "zero_mode":
            cores = [np.ones((1, 0, 2)), np.ones((2, 5, 1))]
            path.write_bytes(container_bytes(b"TTC3", 0, cores))
        else:
            save_tt(path, TtTensor.ones((4, 5, 6)))
            path.write_bytes(path.read_bytes()[:-8])
        argv = ["check", str(path)] if command == "check" else [
            "dump", "tt-info", "--path", str(path)
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid TT container")

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["tensor", "operator"]), st.data())
    def test_damaged_container_rejected(self, kind, data):
        """Any byte changed, or the file cut short, makes load_tt raise
        ValueError (never struct.error, IndexError or OverflowError) and
        ``ttiga check`` exit 1."""
        from ttiga.tensor_train import TtMatrix, TtTensor, load_tt, save_tt

        rng = np.random.default_rng(44)
        if kind == "tensor":
            t = TtTensor.random((5, 6, 7), (3, 4), rng)
        else:
            t = TtMatrix([rng.standard_normal(s) for s in
                          ((1, 3, 3, 2), (2, 5, 5, 3), (3, 4, 1, 1))])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "damaged.tt"
            save_tt(path, t)
            raw = bytearray(path.read_bytes())
            if data.draw(st.booleans(), label="flip"):
                pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
                raw[pos] ^= data.draw(st.integers(1, 255), label="xor")
            else:
                del raw[data.draw(st.integers(0, len(raw) - 1), label="cut"):]
            path.write_bytes(bytes(raw))
            with pytest.raises(ValueError):
                load_tt(path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["check", str(path)]) == 1
            assert err.getvalue().startswith("error: invalid TT container")

    def test_garbage_csv_rejected(self, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["check", str(bad)]) == 1

    @pytest.mark.parametrize(
        "field,index,value,word",
        [("weights", (0, 0, 0), float("nan"), "finite"),
         ("control_points", (0, 0, 0, 2), float("inf"), "finite"),
         ("knots", None, 5, "knots"),
         ("degrees", None, ["a", 1, 1], "degrees")],
        ids=["nan-weight", "inf-control-point", "int-knots", "str-degree"],
    )
    def test_non_finite_patch_rejected(
        self, tmp_path, capsys, field, index, value, word
    ):
        """Python's json reads NaN and Infinity; a patch holding either, or
        a field of the wrong type, is refused with one error line that
        names the fault. The ring patch gets ``value`` at ``index`` of the
        field's grid, or as the whole field when ``index`` is None."""
        path = tmp_path / "ring.json"
        assert main(["dump", "geometry", "--name", "ring", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        if index is None:
            doc[field] = value
        else:
            grid = np.array(doc[field])
            grid[index] = value
            doc[field] = grid.tolist()
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid patch JSON: ") and word in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "name,content,where",
        [
            ("dofs.csv", {"dofs": "many"}, "line 2, column dofs"),
            ("cr.csv", {"cr_K": "1.5e"}, "line 2, column cr_K"),
            ("time.csv", {"t_solve_s": "fast"}, "line 2, column t_solve_s"),
            ("field.txt", b"0 0 0 1\n0 0.5 zero 2\n", "line 2, column 3"),
            ("latin1.csv", b"geometry,p\nr\xe9ng,2\n", "line 2, column 2"),
        ],
        ids=["int-cell", "float-cell", "time-cell", "field-column", "not-utf8"],
    )
    def test_malformed_artifact_named(self, tmp_path, capsys, name, content, where):
        """A bad cell, field column or byte exits 1 with one error line that
        names the file, the line and the column, never a traceback."""
        path = tmp_path / name
        if isinstance(content, dict):
            row = dict(zip(cli.CSV_COLUMNS, ["ring", "2", "4", "216", "0.1", "3",
                                             "2", "2", "0.5", "0.5", "1e-9"]))
            row.update(content)
            path.write_text(",".join(cli.CSV_COLUMNS) + "\n" + ",".join(row.values()) + "\n")
        else:
            path.write_bytes(content)
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {where}")
        assert err.count("\n") == 1
