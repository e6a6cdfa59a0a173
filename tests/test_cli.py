import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttiga.driver as driver
from ttiga.cli import check_artifact, main

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
         {"kick_rank": "x"}, {"max_sweeps": 0}, {"initial": 1}],
    )
    def test_bad_solver_option_rejected(self, tmp_path, capsys, solver):
        cfg = write_config(
            tmp_path / "cfg.json", {"runs": [dict(CUBE_RUN, solver=solver)]}
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(solver)) in err

    def test_solver_options_applied(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"),
             "runs": [dict(CUBE_RUN, solver={"kick_rank": 2, "max_rank": None})]},
        )
        assert main(["solve", "--config", str(cfg)]) == 0

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
        "field,value",
        [("n_gauss", 1), ("n_gauss", [2, 2, 1]), ("n_gauss", [2, 2]),
         ("n_gauss", "3"), ("n_gauss", 2.5), ("rank_cap", 0), ("rank_cap", 1.5),
         ("rank_cap", None)],
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

    @pytest.mark.parametrize("field,value", [("n_gauss", 2), ("n_gauss", [3, 2, 4]), ("rank_cap", 1)])
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

    def test_tt_info_on_cached_operator(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TTIGA_CACHE_DIR", str(tmp_path / "cache"))
        cfg = write_config(
            tmp_path / "cfg.json",
            {"output_dir": str(tmp_path / "out"), "runs": [CUBE_RUN]},
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "unit_cube_p1_e2.json").read_text())
        tts = sorted((tmp_path / "cache").glob("*.tt"))
        assert tts, "cache should hold the assembled operators"
        infos = []
        for tt in tts:
            out = tmp_path / (tt.stem + ".info.json")
            assert main(["dump", "tt-info", "--path", str(tt), "--out", str(out)]) == 0
            infos.append(json.loads(out.read_text()))
        op_ranks = [i["ranks"] for i in infos if i["kind"] == "operator"]
        assert report["ranks_K"] in op_ranks

    def test_cache_hit_is_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TTIGA_CACHE_DIR", str(tmp_path / "cache"))
        reports = []
        for sub in ("a", "b"):
            cfg = write_config(tmp_path / f"{sub}.json", {"runs": [CUBE_RUN]})
            out = tmp_path / sub
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            doc = json.loads((out / "unit_cube_p1_e2.json").read_text())
            doc.pop("timings")
            reports.append(doc)
        assert reports[0] == reports[1]


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

    @pytest.mark.parametrize("damage", ["bad_magic", "truncated_cores"])
    @pytest.mark.parametrize("command", ["check", "tt-info"])
    def test_corrupt_container_rejected(self, tmp_path, capsys, damage, command):
        from ttiga.tensor_train import TtTensor, save_tt

        path = tmp_path / "bad.tt"
        if damage == "bad_magic":
            path.write_text("garbage")
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
        """A header byte changed, or the file cut short, makes load_tt raise
        ValueError (never struct.error, IndexError or OverflowError) and
        ``ttiga check`` exit 1."""
        from ttiga.tensor_train import TtMatrix, TtTensor, load_tt, save_tt

        rng = np.random.default_rng(44)
        if kind == "tensor":
            t = TtTensor.random((5, 6, 7), (3, 4), rng)
            header = 6 + 4 * 3 + 4 * 4
        else:
            t = TtMatrix([rng.standard_normal(s) for s in
                          ((1, 3, 4, 2), (2, 5, 5, 3), (3, 4, 3, 1))])
            header = 6 + 2 * 4 * 3 + 4 * 4
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "damaged.tt"
            save_tt(path, t)
            raw = bytearray(path.read_bytes())
            if data.draw(st.booleans(), label="flip"):
                pos = data.draw(st.integers(0, header - 1), label="pos")
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
