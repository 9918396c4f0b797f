import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import secrates
from secrates.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NONCONVERGENCE, EXIT_OK, _resolve,
                          _write_csv, main, run_delay_limited_sweep, run_ergodic_region,
                          run_point_eval)
from secrates.errors import ConfigError

FAST_CHANNELS = {
    "h_m": {"kind": "deterministic", "value": 3.0},
    "h_e": {"kind": "deterministic", "value": 0.0},
    "h_z": {"kind": "deterministic", "value": 1.0},
}
# the one point-eval op that reads seed, samples and rate_tol: a pilot solve
SOLVE = {"op": "solve", "args": {"regime": "pilot_feedback", "alpha": 0.5}}


def write_config(path, data):
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_import_loads_no_quadrature():
    # channels.expect imports scipy.integrate, and ergodic._g scipy.special, when
    # each first runs, so a CLI run that needs neither never pays for scipy
    env = dict(os.environ, PYTHONPATH=str(Path(secrates.__file__).parents[1]))
    code = "import sys, secrates.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_one_input_path(capsys):
    # the config file or a manifest, never both, never neither, and no other input
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
        "--help", "--config", "--rerun", "--out-dir"}
    for argv in ([], ["--config", "c.yaml", "--rerun", "manifest.json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG


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
        ({"samples": "lots", "point": SOLVE}, "samples"),
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
        ({"rate_tol": 0, "point": SOLVE}, "rate_tol"),
        ({"rate_tol": -1, "point": SOLVE}, "rate_tol"),
        ({"rate_tol": math.nan, "point": SOLVE}, "rate_tol"),
        ({"seed": -1, "point": SOLVE}, "seed"),
        *(({"point": {"op": "c_min_closed_form", "args": {"R": 1.0, "r_s": bad}}},
           "point.args.r_s") for bad in (math.nan, math.inf, -1.0)),
        *(({"hz_quantile": bad}, "hz_quantile") for bad in (math.nan, 0.0, 1.0, None)),
        # a count that is not a whole number used to be truncated silently
        ({"seed": 1.9, "point": SOLVE}, "seed"),
        ({"samples": 2.5, "point": SOLVE}, "samples"),
        ({"scenario": "ergodic-region",
          "grid": {"he": {"start": 1.0, "stop": 2.0, "num": 2.5},
                   "hm": {"start": 1.0, "stop": 2.0, "num": 2}}}, "grid.he"),
        # YAML's true is an int in Python, and used to run as 1
        *(({key: True, "point": SOLVE}, key) for key in ("seed", "samples", "rate_tol")),
        ({"hz_star": True}, "hz_star"),
        ({"point": {"op": "cdf", "args": {"x": True}}}, "point.args.x"),
        ({"point": {"op": "solve", "args": {"alpha": True}}}, "point.args.alpha"),
        ({"point": {"op": "c_min_closed_form", "args": {"R": True, "r_s": 0.5}}},
         "point.args.R"),
        ({"scenario": "delay-limited-sweep", "alphas": [0.5, True]}, "alphas"),
        ({"scenario": "ergodic-region",
          "grid": {"he": {"start": 1.0, "stop": 2.0, "num": True},
                   "hm": {"start": 1.0, "stop": 2.0, "num": 2}}}, "grid.he"),
        # and so did a boolean channel parameter, power or axis end
        ({"channels": {**FAST_CHANNELS, "h_m": {"kind": "exponential", "mean": True}}},
         "channels.h_m"),
        ({"channels": {**FAST_CHANNELS, "h_e": {"kind": "deterministic", "value": True}}},
         "channels.h_e"),
        ({"power": {"p": True, "p_j": 1.0}}, "power"),
        ({"power": {"p": 1.0, "p_j": True}}, "power"),
        ({"scenario": "ergodic-region",
          "grid": {"he": {"start": True, "stop": 2.0, "num": 2},
                   "hm": {"start": 1.0, "stop": 2.0, "num": 2}}}, "grid.he"),
        ({"scenario": "ergodic-region",
          "grid": {"he": {"start": 0.5, "stop": 2.0, "num": 2},
                   "hm": {"start": 0.5, "stop": True, "num": 2}}}, "grid.hm"),
        # an axis end that is no number, a count past the floats, a missing count
        ({"scenario": "ergodic-region",
          "grid": {"he": {"start": "x", "stop": 2.0, "num": 3},
                   "hm": {"start": 1.0, "stop": 10.0, "num": 2}}}, "grid.he"),
        ({"scenario": "ergodic-region",
          "grid": {"he": {"start": 0.5, "stop": 2.0, "num": math.inf},
                   "hm": {"start": 1.0, "stop": 10.0, "num": 2}}}, "grid.he"),
        ({"scenario": "ergodic-region",
          "grid": {"he": {"start": 0.5, "stop": 2.0, "num": 2},
                   "hm": {"start": 1.0, "stop": 10.0}}}, "grid.hm"),
        # a spacing other than log or linear used to run as linear
        *(({"scenario": "ergodic-region",
            "grid": {"he": {"start": 0.5, "stop": 2.0, "num": 3},
                     "hm": {"start": 1.0, "stop": 10.0, "num": 2},
                     axis: {"start": 0.5, "stop": 2.0, "num": 3, "spacing": bad}}},
           f"grid.{axis}.spacing") for axis, bad in (("he", "logarithmic"), ("hm", None))),
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, extra, key):
        data = {"scenario": "point-eval", "channels": FAST_CHANNELS,
                "point": {"op": "cdf", "args": {"x": 1.0}}}
        data.update(extra)
        cfg = write_config(tmp_path / "c.yaml", data)
        assert main(["--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("extra, key", [
        ({"rate_tl": 1e-6, "point": SOLVE}, "rate_tl"),
        ({"scenario": "ergodic-region",
          "grid": {"he": {"start": 0.5, "stop": 2.0, "num": 3},
                   "hm": {"start": 1.0, "stop": 10.0, "num": 2, "spcing": "linear"}}},
         "grid.hm.spcing"),
        ({"point": {"op": "cdf", "args": {"x": 1.0, "chanel": "h_m"}}}, "point.args.chanel"),
    ])
    def test_unknown_key_names_its_path(self, tmp_path, capsys, extra, key):
        # a key the grammar does not define used to be ignored, and its default used
        data = {"scenario": "point-eval", "channels": FAST_CHANNELS,
                "point": {"op": "cdf", "args": {"x": 1.0}}, **extra}
        cfg = write_config(tmp_path / "c.yaml", data)
        assert main(["--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{key}: unknown key" in err and "Traceback" not in err

    def test_out_dir_names_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        cfg = write_config(tmp_path / "c.yaml", {"scenario": "point-eval", "channels": FAST_CHANNELS,
                                                 "point": {"op": "cdf", "args": {"x": 1.0}}})
        assert main(["--config", str(cfg), "--out-dir", str(afile)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--out-dir" in err and "Traceback" not in err

    def test_oversized_samples(self, tmp_path, capsys):
        # 10**15 draws are refused by the range of samples, before any allocation
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "point-eval", "samples": 10**15,
            "channels": {"h_m": {"kind": "exponential", "mean": 10.0},
                         "h_e": {"kind": "exponential", "mean": 1.0},
                         "h_z": {"kind": "deterministic", "value": 1.0}},
            "point": {"op": "solve", "args": {"regime": "pilot_feedback", "alpha": 0.5}},
        })
        assert main(["--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "samples" in err and "10**8" in err and "Traceback" not in err

    def test_samples_bound(self):
        # one draw past the bound is a ConfigError naming the key; nothing is allocated
        config = {"scenario": "point-eval", "point": SOLVE}
        with pytest.raises(ConfigError, match="samples"):
            _resolve({**config, "samples": 10**8 + 1})
        assert _resolve({**config, "samples": 10**8}).search.mc_n == 10**8

    def test_samples_unread_without_a_solve(self, tmp_path, capsys):
        # a cdf draws nothing, so samples past the bound do not concern it
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "point-eval", "samples": 10**15, "channels": FAST_CHANNELS,
            "point": {"op": "cdf", "args": {"channel": "h_m", "x": 5.0}}})
        assert main(["--config", str(cfg)]) == EXIT_OK
        assert "cdf[h_m](5.0) = 1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("regime", ["no_csi", "packet_feedback"])
    def test_samples_unread_by_a_closed_form_solve(self, tmp_path, capsys, regime):
        # only a pilot solve draws and bisects to rate_tol: the other regimes find their
        # root exactly, and neither check nor record seed, samples and rate_tol
        config = {"scenario": "point-eval", "samples": 10**15, "seed": -1, "rate_tol": 0,
                  "point": {"op": "solve", "args": {"regime": regime, "alpha": 0.5}}}
        assert not {"seed", "samples", "rate_tol"} & set(_resolve(config).config)
        cfg = write_config(tmp_path / "c.yaml", {**config, "channels": FAST_CHANNELS})
        assert main(["--config", str(cfg)]) == EXIT_OK
        assert f"solve[{regime}](alpha=0.5)" in capsys.readouterr().out

    def test_oversized_grid(self, tmp_path, capsys):
        # 10**15 grid points are refused by the grid-size bound, before any allocation
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "ergodic-region",
            "grid": {"he": {"start": 0.5, "stop": 2.0, "num": 10**15},
                     "hm": {"start": 0.5, "stop": 200.0, "num": 3}},
        })
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "grid.he.num" in err and "grid.hm.num" in err and "Traceback" not in err

    def test_grid_bound(self):
        # one row past 10**6 cells is a ConfigError naming both counts; no axis is built
        def region(n_he, n_hm):
            return {"scenario": "ergodic-region",
                    "grid": {"he": {"start": 0.5, "stop": 2.0, "num": n_he},
                             "hm": {"start": 1.0, "stop": 10.0, "num": n_hm}}}
        with pytest.raises(ConfigError, match=r"grid\.he\.num x grid\.hm\.num"):
            _resolve(region(1001, 1000))
        assert [a.size for a in _resolve(region(1000, 1000)).axes] == [1000, 1000]

    def test_axis_spacing(self):
        # log is the default; linear is the one other spacing
        grid = {"he": {"start": 0.5, "stop": 2.0, "num": 3},
                "hm": {"start": 1.0, "stop": 4.0, "num": 3, "spacing": "linear"}}
        he, hm = _resolve({"scenario": "ergodic-region", "grid": grid}).axes
        assert he.tolist() == pytest.approx([0.5, 1.0, 2.0], rel=1e-15)
        assert hm.tolist() == [1.0, 2.5, 4.0]


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
        assert manifest["config"]["seed"] == 20240 and "version" in manifest
        # each value once: no copy of the seed or of the CSV columns beside the config
        assert set(manifest) == {"tool", "version", "config", "outputs", "wall_clock_s"}

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

    def test_zero_power_is_a_tie(self, tmp_path):
        # p = 0: both rates are exactly 0, so neither strategy wins
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "ergodic-region",
            "power": {"p": 0.0, "p_j": 1.0},
            "grid": {"he": {"start": 0.5, "stop": 2.0, "num": 2},
                     "hm": {"start": 1.0, "stop": 10.0, "num": 2}},
        })
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        grid = (out / "ergodic_grid.csv").read_text().splitlines()[1:]
        assert len(grid) == 4
        assert all(l.split(",")[-1] == "tie" for l in grid)

    def test_integral_float_counts(self, tmp_path):
        # whole numbers written as floats (PyYAML reads 1.0e6 as a string) are counts
        point = yaml.safe_load("scenario: point-eval\nseed: 7.0\nsamples: 1.0e6\n"
                               "point: {op: solve, args: {regime: pilot_feedback, alpha: 0.5}}\n")
        config = _resolve(point).config  # the config a manifest records
        assert (config["seed"], config["samples"]) == (7, 10**6)
        cfg = tmp_path / "c.yaml"
        cfg.write_text("scenario: ergodic-region\ngrid:\n"
                       "  he: {start: 0.5, stop: 2.0, num: 2.0}\n"
                       "  hm: {start: 1.0, stop: 10.0, num: 2}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        assert len((out / "ergodic_grid.csv").read_text().splitlines()) == 1 + 2 * 2

    def test_region_records_no_search_keys(self, tmp_path):
        # the region solves nothing: seed, samples and rate_tol are accepted,
        # but no default is filled in and no value recorded
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "ergodic-region", "seed": 3, "samples": 10_000, "rate_tol": 0.1,
            "grid": {"he": {"start": 0.5, "stop": 2.0, "num": 2},
                     "hm": {"start": 1.0, "stop": 10.0, "num": 2}}})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert not {"seed", "samples", "rate_tol"} & set(config)

    def test_rerun_resolves_the_grid(self, tmp_path):
        # a manifest that recorded the grid as written (a float num, no spacing) reruns
        # byte-identically, and the new manifest records the resolved axes
        written = {"he": {"start": 0.5, "stop": 2.0, "num": 2.0},
                   "hm": {"start": 1.0, "stop": 10.0, "num": 2}}
        resolved = {axis: {"start": spec["start"], "stop": spec["stop"], "num": 2,
                           "spacing": "log"} for axis, spec in written.items()}
        old = tmp_path / "manifest.json"
        old.write_text(json.dumps({"config": {"scenario": "ergodic-region", "grid": written}}))
        cfg = write_config(tmp_path / "c.yaml", {"scenario": "ergodic-region", "grid": resolved})
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main(["--rerun", str(old), "--out-dir", str(tmp_path / "b")]) == EXIT_OK
        for name in ("ergodic_grid.csv", "ergodic_boundary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        grid = json.loads((tmp_path / "b" / "manifest.json").read_text())["config"]["grid"]
        assert grid == resolved and all(type(axis["num"]) is int for axis in grid.values())

    @pytest.mark.parametrize("name", ["h_m", "h_e"])
    def test_point_mass_law_rejected(self, tmp_path, capsys, name):
        # the region is a grid of exponential means; a point mass used to be
        # read as an exponential mean
        channels = {"h_m": {"kind": "exponential", "mean": 10.0},
                    "h_e": {"kind": "exponential", "mean": 1.0}, "h_z": FAST_CHANNELS["h_z"]}
        channels[name] = {"kind": "deterministic", "value": 3.0}
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "ergodic-region", "channels": channels,
            "grid": {"he": {"start": 0.5, "stop": 2.0, "num": 2},
                     "hm": {"start": 1.0, "stop": 10.0, "num": 2}}})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"channels.{name}" in err and "Traceback" not in err
        assert not (out / "ergodic_grid.csv").exists()


@pytest.mark.parametrize("config, names", [
    ({"scenario": "delay-limited-sweep", "alphas": [0.5], "channels": FAST_CHANNELS},
     ["delay_limited_sweep.csv"]),
    ({"scenario": "ergodic-region", "grid": {"he": {"start": 0.5, "stop": 2.0, "num": 2},
                                             "hm": {"start": 1.0, "stop": 10.0, "num": 2}}},
     ["ergodic_grid.csv", "ergodic_boundary.csv"]),
    ({"scenario": "point-eval", "point": {"op": "cdf", "args": {"x": 1.0}}}, []),
])
def test_runners_write_no_file(tmp_path, monkeypatch, config, names):
    # a runner returns its tables; main alone writes them and the manifest
    exp = _resolve(config)
    runner = {"delay-limited-sweep": run_delay_limited_sweep, "ergodic-region": run_ergodic_region,
              "point-eval": run_point_eval}[config["scenario"]]
    monkeypatch.chdir(tmp_path)
    code, tables = runner(exp)
    assert code == EXIT_OK and list(tables) == names
    assert list(tmp_path.iterdir()) == []
    # through main, point-eval still writes no file
    if not names:
        cfg = write_config(tmp_path / "c.yaml", config)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        assert list((tmp_path / "out").iterdir()) == []


# doubles a CSV cell must carry exactly: signed zero, subnormals, the extremes, inf and nan
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, math.inf, -math.inf, math.nan]


# derandomized: every run tries the same examples, so a failure reproduces
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), min_size=1, max_size=16))
def test_csv_floats_round_trip(values):
    """Every float cell parses back to the same double (its sign too), and nan to nan."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _write_csv(path, {"array": np.array(values), "list": [np.float64(v) for v in values]})
        lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "array,list" and len(lines) == 1 + len(values)
    for v, line in zip(values, lines[1:]):
        for cell in line.split(","):
            back = float(cell)
            assert (math.isnan(back) and math.isnan(v)) or (
                back == v and math.copysign(1.0, back) == math.copysign(1.0, v))


def test_csv_cells_and_column_order(tmp_path):
    # a bool is 1 or 0, None an empty cell, a string verbatim; a 2-D array is read row-major
    path = tmp_path / "t.csv"
    _write_csv(path, {"winner": np.array(["tie", "block by block", "x"]),
                      "flag": [True, False, np.bool_(True)], "e_hm": [None, 0.5, np.float64(2.0)],
                      "grid": np.array([[1.5], [2.5], [3.0]]), "alpha": np.array([0.1, 1.0, 1e-7])})
    assert path.read_bytes() == (b"winner,flag,e_hm,grid,alpha\n"
                                 b"tie,1,,1.5,0.1\nblock by block,0,0.5,2.5,1.0\nx,1,2.0,3.0,1e-07\n")


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


# -- fuzzing main --------------------------------------------------------------

# Malformed values any key may take.
JUNK = [0, -1, "x", math.nan, math.inf, None, []]


def mostly(strategy, other):
    """A value of ``strategy`` about seven times in eight, else one of ``other``."""
    return st.tuples(st.integers(0, 7), strategy, other).map(lambda t: t[2] if t[0] == 7 else t[1])


def pool(*valid):
    return mostly(st.sampled_from(valid), st.sampled_from(JUNK))


def mapping(**keys):
    """A mapping with all of ``keys``, or some of them, or no mapping."""
    some = mostly(st.fixed_dictionaries(keys), st.fixed_dictionaries({}, optional=keys))
    return mostly(some, st.sampled_from(JUNK))


GAIN = st.one_of(mapping(kind=pool("exponential"), mean=pool(0.5, 10.0)),
                 mapping(kind=pool("deterministic"), value=pool(0.0, 3.0)))
AXIS = mapping(start=pool(0.5, 1.0), stop=pool(2.0, 10.0), num=pool(1, 2, 3),
               spacing=st.sampled_from(["log", "linear"]))
CONFIGS = st.fixed_dictionaries(
    {
        "scenario": pool("delay-limited-sweep", "ergodic-region", "point-eval"),
        "alphas": mostly(st.lists(pool(0.3, 0.5, 1.0), min_size=1, max_size=2),
                         st.sampled_from(JUNK)),
        "grid": mapping(he=AXIS, hm=AXIS),
        # the defaults (1e6 samples, rate_tol 1e-4) make a pilot solve slow
        "samples": pool(1, 20_000),
        "rate_tol": pool(0.5, 2.0),
        "point": mapping(
            op=pool("cdf", "rate_nocsi", "rate_upper_bound", "rate_arq",
                    "c_min_closed_form", "solve"),
            args=mapping(regime=pool("no_csi", "packet_feedback", "pilot_feedback"),
                         channel=pool("h_m", "h_e", "h_z"), x=pool(1.0),
                         R=pool(1.0, 2.0), r_s=pool(0.5), alpha=pool(0.5, 1.0)),
        ),
    },
    optional={
        "channels": mapping(h_m=GAIN, h_e=GAIN, h_z=GAIN),
        "power": mapping(p=pool(0.0, 1.0), p_j=pool(0.0, 1.0)),
        "seed": pool(1, 20240),
        "hz_star": pool(0.0, 0.5),
        "hz_quantile": pool(0.75),
    },
)


# derandomized: every run tries the same examples, so a failure reproduces
@settings(max_examples=200, deadline=None, derandomize=True)
@given(CONFIGS)
def test_fuzzed_config_exits_cleanly(config):
    """Any config mapping ends in a documented exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "c.yaml", config)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(cfg), "--out-dir", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NONCONVERGENCE, EXIT_INFEASIBLE)
    assert "Traceback" not in err.getvalue()
