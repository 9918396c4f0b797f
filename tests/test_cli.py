import json

import pytest
import yaml

from secrates.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main

FAST_CHANNELS = {
    "h_m": {"kind": "deterministic", "value": 3.0},
    "h_e": {"kind": "deterministic", "value": 0.0},
    "h_z": {"kind": "deterministic", "value": 1.0},
}


def write_config(path, data):
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


class TestConfigErrors:
    def test_missing_scenario(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", {})
        assert main(["--config", str(cfg)]) == EXIT_CONFIG
        assert "scenario" in capsys.readouterr().err

    def test_sweep_requires_alphas(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", {"scenario": "delay-limited-sweep"})
        assert main(["--config", str(cfg)]) == EXIT_CONFIG
        assert "alphas" in capsys.readouterr().err

    def test_alpha_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           {"scenario": "delay-limited-sweep", "alphas": [0.5, 1.5]})
        assert main(["--config", str(cfg)]) == EXIT_CONFIG

    def test_bad_channel_kind(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "delay-limited-sweep", "alphas": [0.5],
            "channels": {"h_m": {"kind": "rayleigh", "mean": 1.0},
                         "h_e": FAST_CHANNELS["h_e"], "h_z": FAST_CHANNELS["h_z"]},
        })
        assert main(["--config", str(cfg)]) == EXIT_CONFIG

    def test_ergodic_requires_grid(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {"scenario": "ergodic-region"})
        assert main(["--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG

    def test_rerun_without_config_section(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"outputs": []}), encoding="utf-8")
        assert main(["--rerun", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("extra, key", [
        ({"point": {"op": "c_min_closed_form",
                    "args": {"regime": "pilot_feedback", "R": 1.0, "r_s": 0.5}}},
         "point.args.regime"),
        ({"samples": "lots"}, "samples"),
        ({"point": {"op": "cdf"}}, "point.args.x"),
        ({"point": {"op": "solve", "args": {"regime": "no_csi"}}}, "point.args.alpha"),
        ({"point": {"op": "c_min_closed_form", "args": {"R": -1.0, "r_s": 0.5}}},
         "point.args.R"),
        ({"scenario": "ergodic-region", "hz_quantile": 1.5,
          "grid": {"he": {"start": 1.0, "stop": 2.0, "num": 2},
                   "hm": {"start": 1.0, "stop": 2.0, "num": 2}}}, "hz_quantile"),
        ({"scenario": "ergodic-region", "hz_star": -1.0,
          "grid": {"he": {"start": 1.0, "stop": 2.0, "num": 2},
                   "hm": {"start": 1.0, "stop": 2.0, "num": 2}}}, "hz_star"),
        ({"scenario": "ergodic-region",
          "grid": {"he": {"start": 1.0, "stop": 1.0, "num": 2},
                   "hm": {"start": 1.0, "stop": 2.0, "num": 2}}}, "grid.he"),
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, extra, key):
        data = {"scenario": "point-eval", "channels": FAST_CHANNELS,
                "point": {"op": "cdf", "args": {"x": 1.0}}}
        data.update(extra)
        cfg = write_config(tmp_path / "c.yaml", data)
        assert main(["--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err


class TestDelayLimitedSweep:
    def run_sweep(self, tmp_path, alphas):
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "delay-limited-sweep",
            "channels": FAST_CHANNELS,
            "alphas": alphas,
        })
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--out-dir", str(out)])
        return code, out

    def test_csv_shape_and_sorted_alphas(self, tmp_path):
        code, out = self.run_sweep(tmp_path, [0.9, 0.5])
        assert code == EXIT_OK
        lines = (out / "delay_limited_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "alpha", "r_s_nocsi", "r_s_packet", "r_s_pilot",
            "c_stderr_nocsi", "c_stderr_packet", "c_stderr_pilot",
            "infeasible_nocsi", "infeasible_packet", "infeasible_pilot",
        ]
        alphas = [float(l.split(",")[0]) for l in lines[1:]]
        assert alphas == [0.5, 0.9]
        # deterministic channels: all regimes reach the jammed capacity
        for line in lines[1:]:
            vals = line.split(",")
            assert float(vals[1]) == pytest.approx(1.3219, abs=1e-3)
            assert vals[7:10] == ["0", "0", "0"]

    def test_manifest_rerun_byte_identical(self, tmp_path):
        _, out1 = self.run_sweep(tmp_path, [0.5])
        out2 = tmp_path / "rerun"
        code = main(["--rerun", str(out1 / "manifest.json"), "--out-dir", str(out2)])
        assert code == EXIT_OK
        a = (out1 / "delay_limited_sweep.csv").read_bytes()
        b = (out2 / "delay_limited_sweep.csv").read_bytes()
        assert a == b

    def test_manifest_contents(self, tmp_path):
        _, out = self.run_sweep(tmp_path, [0.5])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "secrates"
        assert manifest["outputs"] == ["delay_limited_sweep.csv"]
        assert manifest["config"]["scenario"] == "delay-limited-sweep"
        assert "seed" in manifest and "version" in manifest

    def test_infeasible_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "delay-limited-sweep",
            # eavesdropper as strong as the main link: every rate fails
            # either the jammed-capacity or the secrecy condition
            "channels": {
                "h_m": {"kind": "deterministic", "value": 3.0},
                "h_e": {"kind": "deterministic", "value": 3.0},
                "h_z": {"kind": "deterministic", "value": 1.0},
            },
            "alphas": [0.5],
        })
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out)]) == EXIT_INFEASIBLE
        lines = (out / "delay_limited_sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[7:10] == ["1", "1", "1"]


class TestErgodicRegion:
    def test_grid_and_boundary_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "ergodic-region",
            "samples": 20_000,
            "grid": {
                "he": {"start": 0.5, "stop": 2.0, "num": 2},
                "hm": {"start": 1.0, "stop": 10.0, "num": 3},
            },
            "channels": {
                "h_m": {"kind": "exponential", "mean": 10.0},
                "h_e": {"kind": "exponential", "mean": 1.0},
                "h_z": {"kind": "exponential", "mean": 1.0},
            },
        })
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        grid = (out / "ergodic_grid.csv").read_text().splitlines()
        assert grid[0] == "e_he,e_hm,r_nocsi,r_upper,err_nocsi,err_upper,winner"
        assert len(grid) == 1 + 2 * 3
        assert all(l.split(",")[-1] in ("across_blocks", "block_by_block")
                   for l in grid[1:])
        boundary = (out / "ergodic_boundary.csv").read_text().splitlines()
        assert boundary[0] == "e_he,e_hm_boundary,status,gap_err"
        assert len(boundary) == 1 + 2

    def test_cli_flag_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SECRATES_MAX_WORKERS", "1")
        out = tmp_path / "out"
        code = main([
            "--scenario", "ergodic-region", "--out-dir", str(out),
            "--samples", "10000", "--grid-he", "0.5:2:2", "--grid-hm", "1:10:2",
        ])
        assert code == EXIT_OK
        assert (out / "ergodic_grid.csv").exists()


class TestPointEval:
    def run_point(self, tmp_path, point, capsys, extra=None):
        data = {"scenario": "point-eval", "channels": FAST_CHANNELS, "point": point}
        data.update(extra or {})
        cfg = write_config(tmp_path / "c.yaml", data)
        code = main(["--config", str(cfg)])
        return code, capsys.readouterr().out

    def test_cdf(self, tmp_path, capsys):
        code, out = self.run_point(
            tmp_path, {"op": "cdf", "args": {"channel": "h_m", "x": 5.0}}, capsys)
        assert code == EXIT_OK
        assert "cdf[h_m](5.0) = 1.0" in out

    def test_closed_form(self, tmp_path, capsys):
        code, out = self.run_point(
            tmp_path,
            {"op": "c_min_closed_form",
             "args": {"regime": "no_csi", "R": 1.0, "r_s": 0.5}},
            capsys,
        )
        assert code == EXIT_OK
        assert "= 1.0" in out  # deterministic channels: rate 1 always survives

    def test_solve(self, tmp_path, capsys):
        code, out = self.run_point(
            tmp_path,
            {"op": "solve", "args": {"regime": "packet_feedback", "alpha": 1.0}},
            capsys,
        )
        assert code == EXIT_OK
        assert "feasible=True" in out

    def test_rate_op(self, tmp_path, capsys):
        code, out = self.run_point(
            tmp_path, {"op": "rate_nocsi"}, capsys, extra={"hz_star": 1.0})
        assert code == EXIT_OK
        assert "rate_nocsi = " in out

    def test_unknown_op(self, tmp_path, capsys):
        code, _ = self.run_point(tmp_path, {"op": "frobnicate"}, capsys)
        assert code == EXIT_CONFIG
