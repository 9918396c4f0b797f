import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import secrates
from secrates.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NONCONVERGENCE, EXIT_OK, _resolve,
                          main)
from secrates.errors import ConfigError

FAST_CHANNELS = {
    "h_m": {"kind": "deterministic", "value": 3.0},
    "h_e": {"kind": "deterministic", "value": 0.0},
    "h_z": {"kind": "deterministic", "value": 1.0},
}


def write_config(path, data):
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_import_loads_no_quadrature():
    # channels.expect imports scipy.integrate when it first runs, so a CLI
    # run that needs no quadrature never pays for that import
    env = dict(os.environ, PYTHONPATH=str(Path(secrates.__file__).parents[1]))
    code = "import sys, secrates.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


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
        ({"rate_tol": 0}, "rate_tol"),
        ({"rate_tol": -1}, "rate_tol"),
        ({"rate_tol": math.nan}, "rate_tol"),
        ({"seed": -1}, "seed"),
        *(({"point": {"op": "c_min_closed_form", "args": {"R": 1.0, "r_s": bad}}},
           "point.args.r_s") for bad in (math.nan, math.inf, -1.0)),
        *(({"hz_quantile": bad}, "hz_quantile") for bad in (math.nan, 0.0, 1.0, None)),
        # a count that is not a whole number used to be truncated silently
        ({"seed": 1.9}, "seed"),
        ({"samples": 2.5}, "samples"),
        ({"scenario": "ergodic-region",
          "grid": {"he": {"start": 1.0, "stop": 2.0, "num": 2.5},
                   "hm": {"start": 1.0, "stop": 2.0, "num": 2}}}, "grid.he"),
        # YAML's true is an int in Python, and used to run as 1
        *(({key: True}, key) for key in ("seed", "samples", "rate_tol", "hz_star")),
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
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, extra, key):
        data = {"scenario": "point-eval", "channels": FAST_CHANNELS,
                "point": {"op": "cdf", "args": {"x": 1.0}}}
        data.update(extra)
        cfg = write_config(tmp_path / "c.yaml", data)
        assert main(["--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, flag", [
        (["--grid-he", "x:2:3", "--grid-hm", "1:10:2"], "--grid-he"),
        (["--grid-he", "0.5:2:1e400", "--grid-hm", "1:10:2"], "--grid-he"),
        (["--grid-he", "0.5:2:2", "--grid-hm", "1:10"], "--grid-hm"),
    ])
    def test_malformed_grid_flag(self, tmp_path, capsys, flags, flag):
        argv = ["--scenario", "ergodic-region", "--out-dir", str(tmp_path), *flags]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

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
        config = {"scenario": "point-eval", "point": {"op": "cdf", "args": {"x": 1.0}}}
        with pytest.raises(ConfigError, match="samples"):
            _resolve({**config, "samples": 10**8 + 1})
        assert _resolve({**config, "samples": 10**8}).search.mc_n == 10**8

    def test_oversized_grid(self, tmp_path, capsys):
        # 10**15 grid points exceed the address space, so the allocation fails at once
        cfg = write_config(tmp_path / "c.yaml", {
            "scenario": "ergodic-region",
            "grid": {"he": {"start": 0.5, "stop": 2.0, "num": 10**15},
                     "hm": {"start": 0.5, "stop": 200.0, "num": 3}},
        })
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "samples" in err and "grid" in err and "Traceback" not in err


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
        cfg = tmp_path / "c.yaml"
        cfg.write_text("scenario: ergodic-region\nseed: 7.0\nsamples: 1.0e6\ngrid:\n"
                       "  he: {start: 0.5, stop: 2.0, num: 2.0}\n"
                       "  hm: {start: 1.0, stop: 10.0, num: 2}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["config"]["seed"], manifest["config"]["samples"]) == (7, 10**6)
        assert len((out / "ergodic_grid.csv").read_text().splitlines()) == 1 + 2 * 2

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

    def test_cli_flag_overrides(self, tmp_path):
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
