import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import topoflux.experiments
from topoflux import cli
from topoflux.cli import main
from topoflux.config import resolve, validate_raw
from topoflux.dynamics import MAX_STEPS, NO_NOISE, PulseSegment, _ramp_step, evolve
from topoflux.errors import ConfigError, TopofluxError
from topoflux.experiments import (
    fidelities,
    initial_state,
    run_evolution,
    run_robustness,
    run_scenario,
    run_sweep,
)
from topoflux.hilbert import UP, HilbertSpec, pure_density
from topoflux.output import (
    CSV_COLUMNS,
    read_trajectory_csv,
    write_trajectory_csv,
)
from topoflux.presets import preset_names, scenario_preset


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_loads(text):
    """json.loads that refuses the NaN / Infinity / -Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


# a ramped fig2a pulse: evolve runs its ramps in Magnus steps of 0.2/(|E| + |g|) = 6.1e-4 ns
RAMPED = {"areaOverPi": -1.0, "shape": "sinSquaredRamp", "rampTime_ns": 0.02}
RUN_PRESETS = ("fig2a", "fig2b", "altParams")
# 10-25 ms an example: most ramped draws are refused before they evolve
RAMPED_FUZZ_EXAMPLES = 200


# device-scale values half the time, else any finite float (zero, both signs,
# subnormals and the extremes)
FINITE = st.one_of(st.floats(-100.0, 100.0), st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(
    st.floats(0.0, 100.0, exclude_min=True),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


@st.composite
def schema_valid_configs(draw, presets=None, shapes=("rectangular", "sinSquaredRamp")):
    """A preset with its pulse, operating point, sweep and truncation redrawn."""
    raw = scenario_preset(draw(st.sampled_from(presets or preset_names())))
    overrides = raw.setdefault("overrides", {})
    for key in ("g_GHz", "gPrime_GHz", "E_GHz"):
        if draw(st.booleans()):
            overrides[key] = draw(FINITE)
    if draw(st.booleans()):
        overrides["resonanceTarget_GHz"] = draw(POSITIVE)
    shape = draw(st.sampled_from(shapes))
    raw["pulse"] = {"areaOverPi": draw(FINITE.filter(bool)), "shape": shape}
    # the schema allows a ramp time on a rectangular pulse too
    if shape == "sinSquaredRamp" or draw(st.booleans()):
        raw["pulse"]["rampTime_ns"] = draw(POSITIVE)
    if "sweep" in raw or draw(st.booleans()):
        raw["sweep"] = {
            "axis": draw(st.sampled_from(["eta1", "eta2"])),
            "lo": draw(st.floats(min_value=0.0, allow_infinity=False)),
            "hi": draw(POSITIVE),
            "points": draw(st.integers(min_value=2, max_value=10**6)),
            "gPrimeOverG": [0, 3],
        }
    if draw(st.booleans()):
        raw["device"]["phiC_rad"] = draw(FINITE)
    levels = draw(st.integers(min_value=2, max_value=6))
    # the schema counts an integer-valued float such as 3.0 as an integer
    raw["hilbert"] = {"fockLevels": float(levels) if draw(st.booleans()) else levels}
    return raw


@pytest.fixture(scope="module")
def fig2a_scn():
    return resolve(scenario_preset("fig2a"))


class TestOutputs:
    def test_csv_contract(self, tmp_path):
        scn = resolve(scenario_preset("fig2a"))
        run_scenario(scn, out_dir=tmp_path, formats=("csv", "json", "svg"))
        lines = (tmp_path / "fig2a.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        cols = read_trajectory_csv(tmp_path / "fig2a.csv")
        # Hermiticity of rho in every row
        assert np.max(np.abs(cols["re_rho12"] - cols["re_rho21"])) < 1e-9
        assert np.max(np.abs(cols["im_rho12"] + cols["im_rho21"])) < 1e-9
        assert np.max(np.abs(cols["trace"] - 1.0)) < 1e-7
        summary = json.loads((tmp_path / "fig2a_summary.json").read_text())
        assert summary["fidelity"] == pytest.approx(0.993, abs=0.005)
        svg = (tmp_path / "fig2a.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<polyline") == 3

    def test_two_sample_trajectory_three_line_csv(self, tmp_path):
        seg = PulseSegment(duration=0.1, g_value=-12.9)
        spec = HilbertSpec(2)
        # the sample period outlasts the pulse: only t=0 and the end
        traj = evolve(pure_density(spec.ket(UP, 0)), seg, NO_NOISE, sample_period=1.0)
        assert len(traj) == 2
        path = write_trajectory_csv(traj, tmp_path / "tiny.csv")
        assert len(path.read_text().strip().split("\n")) == 3

    def test_csv_round_trip_exact(self, tmp_path):
        scn = resolve(scenario_preset("fig2a"))
        traj = evolve(
            initial_state(scn.spec), scn.pulse, scn.noise, sample_period=scn.sample_period
        )
        path = write_trajectory_csv(traj, tmp_path / "t.csv")
        cols = read_trajectory_csv(path)
        assert np.array_equal(cols["t_ns"], traj.times)
        assert np.array_equal(cols["re_rho11"], np.real(traj.rho11))
        assert np.array_equal(cols["im_rho21"], np.imag(traj.rho21))
        assert np.array_equal(cols["purity"], traj.purity)
        assert np.array_equal(cols["min_eig"], traj.min_eigenvalue)

    def test_summary_echoes_resolved_parameters(self):
        scn = resolve(scenario_preset("fig2a"))
        summary = run_scenario(scn)
        params = summary["parameters"]
        assert params["device"]["ej"] == pytest.approx(2 * math.pi * 158.0)
        assert params["operating_point"]["g"] == scn.pulse.g_value
        assert params["validity"]["all_passed"] is True
        assert summary["diagnostics"]["max_trace_error"] < 1e-7


class TestDeterminism:
    def test_scenario_outputs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(resolve(scenario_preset("fig2a")), out_dir=a, formats=("csv", "json", "svg"))
        run_scenario(resolve(scenario_preset("fig2a")), out_dir=b, formats=("csv", "json", "svg"))
        for name in ("fig2a.csv", "fig2a_summary.json", "fig2a.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("ramp", [None, 0.05], ids=["rectangular", "ramped"])
    def test_fock_levels_3_4_6_give_the_same_runs(self, ramp):
        # from |up,0> every run keeps the same 5 states at 3 or more levels, since
        # sigma_f^z is zero on n >= 2: every trajectory column and every summary number
        # outside the parameter echo is the same
        raw = scenario_preset("fig2a")
        if ramp:
            raw["pulse"] = dict(raw["pulse"], shape="sinSquaredRamp", rampTime_ns=ramp)
        runs = []
        for levels in (3, 4, 6):
            scn = resolve(dict(raw, hilbert={"fockLevels": levels}))
            traj, summary = run_evolution(scn), run_scenario(scn)
            del summary["parameters"]
            runs.append((traj, summary))
        (first, summary), *others = runs
        for traj, other in others:
            for field in fields(first):
                if field.name != "final_state":
                    assert np.array_equal(getattr(traj, field.name), getattr(first, field.name))
            assert other == summary

    def test_robustness_byte_identical_with_seed(self, tmp_path):
        raw = dict(scenario_preset("robustness"), robustness={"errorFraction": 0.1, "samples": 3})
        a, b = tmp_path / "a", tmp_path / "b"
        run_robustness(resolve(raw), seed=42, out_dir=a)
        run_robustness(resolve(raw), seed=42, out_dir=b)
        assert (a / "robustness_summary.json").read_bytes() == (
            b / "robustness_summary.json"
        ).read_bytes()

    def test_different_seed_changes_samples(self):
        raw = dict(scenario_preset("robustness"), robustness={"errorFraction": 0.1, "samples": 3})
        s1 = run_robustness(resolve(raw), seed=1)
        s2 = run_robustness(resolve(raw), seed=2)
        assert s1["monte_carlo"]["fidelities"] != s2["monte_carlo"]["fidelities"]
        # corners are seed-independent
        assert s1["corners"] == s2["corners"]


class TestSweep:
    def test_single_point_matches_scenario(self):
        scn = resolve(scenario_preset("fig2a"))
        base = run_scenario(scn)["fidelity"]
        eta1 = 1.0 / (2.0 * 900.0)
        ratio = scn.pulse.g_prime_value / scn.pulse.g_value
        raw = dict(
            scenario_preset("fig3a"),
            sweep={
                "axis": "eta1",
                "lo": eta1,
                "hi": 2.0 * eta1,
                "points": 2,
                "gPrimeOverG": [ratio],
            },
        )
        summary = run_sweep(resolve(raw))
        assert summary["fidelities"][0][0] == pytest.approx(base, abs=1e-12)

    def test_fidelities_sample_only_the_ends(self, fig2a_scn, monkeypatch):
        lengths, starts = [], []

        def counting_evolve(rho0, *args, **kwargs):
            traj = evolve(rho0, *args, **kwargs)
            lengths.append(len(traj))
            starts.append(rho0)
            return traj

        monkeypatch.setattr(topoflux.experiments, "evolve", counting_evolve)
        scn = fig2a_scn
        points = [(scn.pulse, scn.noise), (replace(scn.pulse, g_prime_value=0.0), scn.noise)]
        fidelities(scn, points)
        assert lengths == [2, 2]
        # every point starts from the one |up,0> built for the call
        assert starts[0] is starts[1]

    def test_sweep_csv_layout(self, tmp_path):
        # base dephasing effectively off so the eta1 = 0, ratio 0 corner is noise-free
        raw = dict(
            scenario_preset("fig3a"),
            sweep={"axis": "eta1", "lo": 0.0, "hi": 0.002, "points": 3, "gPrimeOverG": [0, 2]},
            noise={"enabled": True, "Tf2_ns": 1.0e30},
        )
        run_sweep(resolve(raw), out_dir=tmp_path)
        lines = (tmp_path / "fig3a_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "eta1_per_ns,F1_gprime_over_g_0,F1_gprime_over_g_2"
        assert len(lines) == 4
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0, abs=1e-4)  # no decoherence, no contamination

    def test_eta2_axis_drives_dephasing(self):
        raw = dict(
            scenario_preset("fig3b"),
            sweep={"axis": "eta2", "lo": 0.0, "hi": 0.05, "points": 2, "gPrimeOverG": [0]},
        )
        summary = run_sweep(resolve(raw))
        f_clean, f_noisy = summary["fidelities"][0][0], summary["fidelities"][1][0]
        assert f_clean > f_noisy

    @pytest.mark.parametrize("name", ["fig3a", "fig3b"])
    def test_sweep_keeps_disabled_noise_off(self, name):
        # with noise disabled, the point where the swept rate is 0 runs without noise: the
        # channel the sweep leaves alone read relaxation at Tf1 = 900 ns on fig3b (0.99986514)
        raw = dict(scenario_preset(name), noise={"enabled": False})
        raw["sweep"].update(lo=0.0, gPrimeOverG=[0])
        scn = resolve(raw)
        clean = fidelities(scn, [(replace(scn.pulse, g_prime_value=0.0), NO_NOISE)])
        assert run_sweep(scn)["fidelities"][0] == clean


class TestRobustness:
    def test_zero_fraction_degenerate(self):
        raw = dict(scenario_preset("robustness"), robustness={"errorFraction": 0.0, "samples": 2})
        s = run_robustness(resolve(raw), seed=0)
        nominal = s["nominal_fidelity"]
        assert s["monte_carlo"]["min"] == pytest.approx(nominal, abs=1e-12)
        assert s["monte_carlo"]["max"] == pytest.approx(nominal, abs=1e-12)
        assert s["worst_corner"]["fidelity"] == pytest.approx(nominal, abs=1e-12)

    def test_corner_count(self):
        raw = dict(scenario_preset("robustness"), robustness={"errorFraction": 0.1, "samples": 0})
        s = run_robustness(resolve(raw), seed=0)
        assert len(s["corners"]) == 8
        factors = {tuple(sorted(c["factors"].items())) for c in s["corners"]}
        assert len(factors) == 8

    def test_scenario_without_robustness_block_refused(self):
        # the CLI never gets here: only the robustness experiment runs under that command,
        # and the schema check asks it for the block
        with pytest.raises(ConfigError, match="scenario has no robustness block") as exc:
            run_robustness(resolve(scenario_preset("fig2a")))
        assert exc.value.pointer == "/robustness"


class TestCli:
    def write_cfg(self, tmp_path, raw, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        return path

    def test_run_ok(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, scenario_preset("fig2a"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "fig2a.csv").exists()
        assert (tmp_path / "out" / "fig2a_summary.json").exists()
        assert "fidelity" in capsys.readouterr().out

    def test_run_svg_format(self, tmp_path):
        cfg = self.write_cfg(tmp_path, scenario_preset("fig2a"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--format", "csv,svg,json"]) == 0
        assert (out / "fig2a.svg").exists()

    def test_derive_prints_json(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, scenario_preset("fig2a"))
        assert main(["derive", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["validity"]["all_passed"] is True

    def test_config_error_exit_2(self, tmp_path, capsys):
        raw = scenario_preset("fig2a")
        raw["pulse"]["areaOverPi"] = 0
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_experiment_command_mismatch_exit_2(self, tmp_path):
        cfg = self.write_cfg(tmp_path, scenario_preset("fig2a"))
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_custom_sweep_without_sweep_block_exit_2(self, tmp_path, capsys):
        # custom runs under sweep, and the schema asks it for no sweep block
        cfg = self.write_cfg(tmp_path, dict(scenario_preset("fig2a"), experiment="custom"))
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scenario has no sweep block (at '/sweep')" in captured.err

    def test_validity_error_exit_3(self, tmp_path, capsys):
        raw = scenario_preset("fig2a")
        raw["device"]["phiC_rad"] = -0.1
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 3
        assert "strong branch" in capsys.readouterr().err

    def test_integration_error_exit_4(self, tmp_path, capsys):
        # dephasing drains the trace at 3 levels (sigma_f^z is zero on n = 2)
        raw = dict(scenario_preset("altParams"), hilbert={"fockLevels": 3})
        raw["pulse"]["areaOverPi"] = -101.0
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "final trace drift 3.8" in captured.err

    def test_sweep_command(self, tmp_path):
        raw = dict(
            scenario_preset("fig3a"),
            sweep={"axis": "eta1", "lo": 0.0, "hi": 0.002, "points": 2, "gPrimeOverG": [0]},
        )
        cfg = self.write_cfg(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "fig3a_sweep.csv").exists()

    def test_robustness_command_with_seed(self, tmp_path):
        raw = dict(scenario_preset("robustness"), robustness={"errorFraction": 0.1, "samples": 2})
        cfg = self.write_cfg(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["robustness", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        summary = json.loads((out / "robustness_summary.json").read_text())
        assert summary["seed"] == 7

    def test_gates_verify(self, tmp_path):
        out = tmp_path / "gates"
        assert main(["gates", "verify", "--out", str(out)]) == 0
        report = json.loads((out / "gates_verification.json").read_text())
        assert report["verdict"]["canonical_root_right_to_left_is_cp"] is True

    def test_unsolved_phase_emits_strict_json(self, tmp_path, capsys):
        # full overrides keep an unsolvable resonance target from being fatal;
        # phi_c stays unresolved and must come out as null, not NaN
        raw = scenario_preset("fig2a")
        raw["overrides"] = {
            "g_GHz": -2.0595918,
            "gPrime_GHz": -1.0439816,
            "E_GHz": 49.963987,
            "resonanceTarget_GHz": 500.0,
        }
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["derive", "--config", str(cfg)]) == 0
        payload = strict_loads(capsys.readouterr().out)
        assert payload["parameters"]["operating_point"]["phi_c"] is None
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = strict_loads((out / "fig2a_summary.json").read_text())
        assert summary["parameters"]["operating_point"]["phi_c"] is None

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", pytest.param("9" * 401, id="401-digit-int")],
    )
    @pytest.mark.parametrize(
        "block, key", [("device", "Tf2_ns"), ("noise", "Tf1_ns"), ("device", "phiC_rad")]
    )
    def test_non_finite_number_exit_2(self, tmp_path, capsys, block, key, literal):
        # json.dumps cannot write these, so splice the literal into the text
        raw = scenario_preset("fig2a")
        raw.setdefault(block, {})[key] = "PLACEHOLDER"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw).replace('"PLACEHOLDER"', literal))
        assert main(["derive", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_format_only_on_run(self, tmp_path):
        raw = dict(
            scenario_preset("fig3a"),
            sweep={"axis": "eta1", "lo": 0.0, "hi": 0.002, "points": 2, "gPrimeOverG": [0]},
        )
        cfg = self.write_cfg(tmp_path, raw)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--format", "csv"])
        assert exc.value.code == 2

    def test_bad_format_exit_2(self, tmp_path):
        cfg = self.write_cfg(tmp_path, scenario_preset("fig2a"))
        assert main(["run", "--config", str(cfg), "--format", "pdf"]) == 2

    @pytest.mark.parametrize("fmt", [",", "", " , "])
    def test_empty_format_exit_2(self, tmp_path, capsys, fmt):
        cfg = self.write_cfg(tmp_path, scenario_preset("fig2a"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "names no output" in captured.err
        assert not out.exists()

    def test_parser_keeps_no_state_between_calls(self, tmp_path):
        assert cli._parser() is cli._parser()
        raw = dict(scenario_preset("robustness"), robustness={"errorFraction": 0.1, "samples": 2})
        rob = str(self.write_cfg(tmp_path, raw, "robustness.json"))
        run = str(self.write_cfg(tmp_path, scenario_preset("fig2a"), "fig2a.json"))

        def seed_of_run(name, *extra):
            out = tmp_path / name
            assert main(["robustness", "--config", rob, "--out", str(out), *extra]) == 0
            return json.loads((out / "robustness_summary.json").read_text())["seed"]

        def files_of_run(name, *extra):
            out = tmp_path / name
            assert main(["run", "--config", run, "--out", str(out), *extra]) == 0
            return sorted(path.name for path in out.iterdir())

        assert seed_of_run("rob1", "--seed", "7") == 7
        assert seed_of_run("rob2") == 0
        assert files_of_run("run1", "--format", "svg") == ["fig2a.svg"]
        assert files_of_run("run2") == ["fig2a.csv", "fig2a_summary.json"]
        for bad in (["robustness", "--config", rob, "--seed", "-1"], ["run", "--format"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            # the next call still gets the defaults
            assert seed_of_run(f"rob-after-{bad[0]}") == 0
            assert files_of_run(f"run-after-{bad[0]}") == ["fig2a.csv", "fig2a_summary.json"]

    @pytest.mark.parametrize(
        "overrides",
        [
            # two ramps of 1.6e7 Magnus steps of 6.1e-4 ns
            pytest.param({}, id="pulse-rampTime_ns-10000.0"),
            # E = 6.3e307 rad/ns sets steps of 3.2e-309 ns, whose count overflows to inf
            pytest.param({"E_GHz": 1e307}, id="overrides-E_GHz-1e307"),
        ],
    )
    def test_step_count_bound_exit_4(self, tmp_path, capsys, overrides):
        # a 2.4e5 ns pulse, so that a 1e4 ns ramp fits
        pulse = dict(RAMPED, areaOverPi=-1e6, rampTime_ns=1e4)
        raw = dict(scenario_preset("fig2a"), pulse=pulse, overrides=overrides)
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "samples and ramp steps" in captured.err
        assert "with ramp steps of" in captured.err

    def test_step_count_bound_rectangular_pulse_names_no_ramp_steps(self, tmp_path, capsys):
        raw = dict(scenario_preset("fig2a"), integration={"samplePeriod_ns": 1e-9})
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "samples and ramp steps" in captured.err
        assert "with ramp steps of" not in captured.err

    def test_long_offending_value_gives_a_short_message(self, tmp_path, capsys):
        # the schema's message repeats the value; its two ends are kept
        raw = dict(scenario_preset("fig2a"), hilbert={"fockLevels": list(range(200_000))})
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["derive", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode()) < 1024
        assert "is not of type 'integer'" in captured.err
        assert "/hilbert/fockLevels" in captured.err

    def test_integration_dt_ns_exit_2(self, tmp_path, capsys):
        # the Magnus step follows from the pulse alone; no key sets or caps it
        raw = dict(scenario_preset("fig2a"), integration={"dt_ns": 1.5e-4})
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unexpected" in captured.err and "/integration" in captured.err

    def test_long_ramped_pulse_runs(self, tmp_path, capsys):
        # the plateau costs one shared exponential and one product per sample
        raw = dict(scenario_preset("fig2a"), pulse=dict(RAMPED, areaOverPi=-1e6))
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 0
        summary = strict_loads(capsys.readouterr().out)
        assert summary["pulse_duration_ns"] == pytest.approx(2.43e5, rel=1e-3)
        assert 0.0 <= summary["fidelity"] <= 1.0

    def test_subnormal_pulse_runs(self, tmp_path, capsys):
        # found by the ramped fuzz: this phase gives g > 0, so the pulse lasts
        # 2.5e-323 ns and duration/200 underflows to 0.  Its ends are sampled.
        raw = scenario_preset("fig2a")
        raw["device"]["phiC_rad"] = -7298446733626987.0
        raw["pulse"] = {"areaOverPi": 5e-324, "shape": "sinSquaredRamp", "rampTime_ns": 5e-324}
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 0
        summary = strict_loads(capsys.readouterr().out)
        assert summary["pulse_duration_ns"] == 2.5e-323

    def test_rectangular_pulse_ignores_ramp_time(self, tmp_path, capsys):
        # the schema accepts rampTime_ns on a rectangular pulse, which has no ramps
        runs = []
        for extra in ({}, {"rampTime_ns": 100}):
            raw = scenario_preset("fig2a")
            raw["pulse"].update(extra)
            out = tmp_path / f"out{len(runs)}"
            cfg = self.write_cfg(tmp_path, raw)
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            summary = strict_loads((out / "fig2a_summary.json").read_text())
            runs.append((summary, (out / "fig2a.csv").read_bytes()))
        (plain, plain_csv), (ramped, ramped_csv) = runs
        assert ramped["parameters"]["pulse"].pop("ramp_time") == 100
        plain["parameters"]["pulse"].pop("ramp_time")
        assert ramped == plain
        assert ramped_csv == plain_csv

    @pytest.mark.parametrize("noise", [True, False], ids=["noise", "closed"])
    def test_step_too_long_for_double_precision_exit_4(self, tmp_path, capsys, noise):
        # a 2.4e10 ns pulse: each sample period's generator has 1-norm 7.7e10
        raw = dict(scenario_preset("fig2a"), noise={"enabled": noise})
        raw["pulse"]["areaOverPi"] = -1e11
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too long for double precision" in captured.err

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ({"integration": {"samplePeriod_ns": 1e-12}}, "samples"),  # 2.4e11 samples
            # g' = 2.3e9 rad/ns: exp(L ds) keeps rho Hermitian only to about 1e-10
            ({"overrides": {"gPrime_GHz": 365373325.0}}, "not Hermitian"),
        ],
        ids=["sample-count", "hermiticity"],
    )
    def test_exact_propagation_refusals_exit_4(self, tmp_path, capsys, blocks, message):
        cfg = self.write_cfg(tmp_path, dict(scenario_preset("fig2a"), **blocks))
        assert main(["run", "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_long_rectangular_pulse_runs(self, tmp_path, capsys):
        # a 2.4e5 ns pulse costs the same 200 samples as a short one
        raw = scenario_preset("fig2a")
        raw["pulse"]["areaOverPi"] = -1e6
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["run", "--config", str(cfg)]) == 0
        summary = strict_loads(capsys.readouterr().out)
        assert summary["pulse_duration_ns"] == pytest.approx(2.43e5, rel=1e-3)
        assert 0.0 <= summary["fidelity"] <= 1.0
        assert all(math.isfinite(v) for v in summary["diagnostics"].values())

    def test_run_imports_no_scipy(self, tmp_path):
        cfg = self.write_cfg(tmp_path, scenario_preset("fig2a"))
        code = (
            "import sys; from topoflux.cli import main; "
            f"assert main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0; "
            "print('scipy' in sys.modules)"
        )
        # the child imports topoflux from the same source tree as this test
        src = Path(topoflux.experiments.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.stdout.splitlines()[-1] == "False"

    def test_reproduce_script_rejects_negative_seed(self, tmp_path):
        # argparse refuses the seed before any scenario runs or --out is made
        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
        src = Path(topoflux.experiments.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, str(script), "--seed", "-1", "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 2
        assert "argument --seed: must be >= 0, got -1" in done.stderr
        assert not (tmp_path / "out").exists()

    def test_reproduce_script_rejects_non_integer_seed(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
        src = Path(topoflux.experiments.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, str(script), "--seed", "abc", "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 2
        assert "argument --seed: must be an integer, got 'abc'" in done.stderr
        assert "_seed" not in done.stderr
        assert not (tmp_path / "out").exists()

    def test_reproduce_script_prints_each_column_range(self, tmp_path, monkeypatch, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
        spec = importlib.util.spec_from_file_location("reproduce_results", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", [str(path), "--out", str(tmp_path)])
        script.main()
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line}
        for name in ("fig3a", "fig3b"):
            summary = json.loads((tmp_path / f"{name}_summary.json").read_text())
            shown = re.findall(r"ratio-(\S+) column (\S+)\.\.(\S+?)[,\s]", lines[name])
            assert len(shown) == 2, lines[name]
            for (ratio, lo, hi), i in zip(shown, (0, -1)):
                column = [row[i] for row in summary["fidelities"]]
                assert ratio == f"{summary['ratios'][i]:g}"
                assert float(lo) <= float(hi)
                assert (lo, hi) == (f"{min(column):.4f}", f"{max(column):.4f}")

    def test_cli_rejects_non_integer_seed(self, tmp_path):
        cfg = self.write_cfg(tmp_path, scenario_preset("robustness"), "robustness.json")
        code, out, err = run_cli(["robustness", "--config", str(cfg), "--seed", "abc"])
        assert code == 2
        assert out == ""
        assert "argument --seed: must be an integer, got 'abc'" in err
        assert "_seed" not in err

    @pytest.mark.parametrize(
        "preset, device",
        [
            ("fig2a", {"delta0_GHz": 1e308}),  # overflows in rad/ns
            ("fig2a", {"EJ_GHz": 1e308}),
            ("fig2a", {"delta0_GHz": 1e307}),  # Delta0 L / vF overflows
            ("fig2a", {"EJ_over_EC": 5e-324}),  # zeta overflows
            ("fig2a", {"vF_m_per_s": 5e-324}),  # underflows to 0 um/ns
            # the pinned resonance solves; then the tunneling error overflows
            ("altParams", {"EJ_GHz": 1e307, "delta0_GHz": 1e5}),
            ("altParams", {"EJ_GHz": 1e300, "beta": 1e300}),  # a report value is inf
        ],
        ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x:g}" for k, x in v.items()),
    )
    def test_device_overflow_exit_2(self, tmp_path, capsys, preset, device):
        raw = scenario_preset(preset)
        raw["device"].update(device)
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["derive", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert "/device" in captured.err

    @pytest.mark.parametrize(
        "device, shown",
        [
            # omega L / (1.9 vF) overflows, so the required sine is -inf
            ({"vF_m_per_s": 1e-300, "EJ_GHz": 1e5}, "sin(phi/2) = beyond float range"),
            # E(phi) = omega_f, about 2e307 rad/ns, once printed with 308 digits
            ({"EJ_GHz": 1e307, "delta0_GHz": 1e5}, "E(phi) = 1.98692e+307 rad/ns"),
        ],
        ids=["sine-overflows", "huge-target"],
    )
    def test_no_resonant_phase_message_exit_3(self, tmp_path, capsys, device, shown):
        raw = scenario_preset("fig2a")
        raw["device"].update(device)
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["derive", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert shown in captured.err
        assert max(len(line) for line in captured.err.splitlines()) < 150

    @pytest.mark.parametrize(
        "raw",
        [
            dict(
                scenario_preset("robustness"), robustness={"errorFraction": 0.1, "samples": 10**12}
            ),
            dict(
                scenario_preset("fig3a"),
                sweep={"axis": "eta1", "lo": 0.0, "hi": 0.2, "points": 10**5, "gPrimeOverG": [0, 1]},
            ),
        ],
        ids=["robustness-samples", "sweep-points"],
    )
    def test_evaluation_cap_exit_2(self, tmp_path, capsys, raw):
        cfg = self.write_cfg(tmp_path, raw)
        assert main(["derive", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "evaluations exceed" in captured.err

    @pytest.mark.parametrize(
        "command, raw",
        [
            ("run", dict(scenario_preset("fig2a"), overrides={"g_GHz": 2.0})),
            ("run", dict(scenario_preset("fig2a"), overrides={"g_GHz": 0})),
            (
                "run",
                dict(scenario_preset("fig2a"), pulse=dict(RAMPED, rampTime_ns=1.0)),
            ),
            (
                "sweep",
                dict(
                    scenario_preset("fig3a"),
                    sweep={"axis": "eta1", "lo": 0.2, "hi": 0.2, "points": 2, "gPrimeOverG": [0]},
                ),
            ),
        ],
        ids=["g-sign-opposite-area", "g-zero", "ramp-longer-than-pulse", "sweep-lo-not-below-hi"],
    )
    def test_pulse_and_sweep_checks_exit_2(self, tmp_path, capsys, command, raw):
        cfg = self.write_cfg(tmp_path, raw)
        for cmd in ("derive", command):
            assert main([cmd, "--config", str(cfg)]) == 2, cmd
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "config error" in captured.err


def _preset_with(name, block, key, value):
    raw = scenario_preset(name)
    raw.setdefault(block, {})[key] = value
    return raw


# argv (CFG, OUT, FILE and FILE/x stand for paths made per test), the config
# written at CFG, and the documented exit code
CLI_PROBES = {
    "config-not-utf-8": (
        ["derive", "--config", "CFG"],
        b"\xff\xfe" + json.dumps(scenario_preset("fig2a")).encode(),
        2,
    ),
    "config-nested-200000-deep": (["derive", "--config", "CFG"], b"[" * 200_000, 2),
    "fockLevels-3.0": (
        ["run", "--config", "CFG", "--out", "OUT"],
        _preset_with("fig2a", "hilbert", "fockLevels", 3.0),
        0,
    ),
    "sweep-points-3.0": (
        ["sweep", "--config", "CFG", "--out", "OUT"],
        _preset_with("fig3a", "sweep", "points", 3.0),
        0,
    ),
    "robustness-samples-2.0": (
        ["robustness", "--config", "CFG", "--out", "OUT"],
        _preset_with("robustness", "robustness", "samples", 2.0),
        0,
    ),
    "seed-negative": (
        ["robustness", "--config", "CFG", "--seed", "-1"],
        scenario_preset("robustness"),
        2,
    ),
    "run-out-is-a-file": (["run", "--config", "CFG", "--out", "FILE"], scenario_preset("fig2a"), 2),
    "gates-out-is-a-file": (["gates", "verify", "--out", "FILE"], scenario_preset("fig2a"), 2),
    "derive-out-under-a-file": (
        ["derive", "--config", "CFG", "--out", "FILE/x"],
        scenario_preset("fig2a"),
        2,
    ),
}


def run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``main(argv)``; an argparse refusal gives its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("probe", CLI_PROBES)
def test_cli_probe_exits_with_documented_code(tmp_path, probe):
    template, config, expected = CLI_PROBES[probe]
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    a_file = tmp_path / "afile"
    a_file.write_text("not a directory")
    paths = {"CFG": cfg, "OUT": tmp_path / "out", "FILE": a_file, "FILE/x": a_file / "x"}
    code, out, err = run_cli([str(paths.get(arg, arg)) for arg in template])
    assert code == expected, err
    assert "Traceback" not in err
    if expected == 0:
        assert out.count("\n") == 1 and "outputs in" in out
    else:
        assert out == ""
        assert err


def test_nesting_near_recursion_limit_exit_2(tmp_path):
    # a band of depths just below the JSON parser's limit: each is refused
    # cleanly, by the parser or by the schema
    cfg = tmp_path / "cfg.json"
    text = json.dumps(_preset_with("fig2a", "hilbert", "fockLevels", "X"))
    limit = sys.getrecursionlimit()
    for depth in range(limit - 150, limit + 1):
        cfg.write_text(text.replace('"X"', "[" * depth + "]" * depth))
        code, out, err = run_cli(["derive", "--config", str(cfg)])
        assert (code, out) == (2, ""), (depth, err)
        assert "Traceback" not in err and "config error" in err, depth


def test_value_too_deep_to_repr_is_a_config_error():
    # the schema's message reprs the offending value; one nested deeper than
    # the stack, which only a caller that builds the dict can pass, is refused
    value = []
    for _ in range(100_000):
        value = [value]
    raw = _preset_with("fig2a", "hilbert", "fockLevels", value)
    with pytest.raises(ConfigError, match="nests too deeply to validate"):
        validate_raw(raw)


@settings(max_examples=200, deadline=None)
@given(schema_valid_configs())
def test_derive_fuzz_exits_cleanly(raw):
    # any schema-valid config derives, or is refused with a documented code
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["derive", "--config", str(cfg)])
    assert code in (0, 2, 3)
    if code == 0:
        strict_loads(out.getvalue())
    else:
        assert out.getvalue() == ""


def evolution_size(raw):
    """Samples plus ramp steps that the config's run needs, and its ramp steps.

    Both come from the raw config: ramp steps count only for a
    ``sinSquaredRamp`` pulse, whatever rampTime_ns a rectangular one carries.
    None when the config is refused before it evolves.
    """
    try:
        scn = resolve(raw)
    except TopofluxError:
        return None
    pulse = raw["pulse"]
    ramp = pulse["rampTime_ns"] if pulse.get("shape") == "sinSquaredRamp" else 0.0
    ramp_steps = 2.0 * ramp / _ramp_step(scn.pulse) if ramp else 0.0
    duration = scn.pulse.duration
    period = scn.sample_period or duration / 200 or duration
    return duration / period + ramp_steps, ramp_steps


def assert_run_exits_cleanly(raw):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        argv = ["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert out.getvalue().startswith("fidelity = ")
        assert out.getvalue().count("\n") == 1
    else:
        assert out.getvalue() == ""
    if raw["pulse"]["shape"] == "rectangular":
        # a rectangular pulse has no ramps, so no refusal may blame its rampTime_ns
        assert "ramp time" not in err.getvalue(), err.getvalue()
    size = evolution_size(raw)
    if size is not None:
        # the step bound refuses exactly the runs that need more than MAX_STEPS
        refused = "samples and ramp steps" in err.getvalue()
        assert refused == (not size[0] <= MAX_STEPS), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(schema_valid_configs(presets=RUN_PRESETS, shapes=("rectangular",)))
def test_run_fuzz_exits_cleanly(raw):
    # rectangular pulses propagate exactly, so each example runs in milliseconds
    assert_run_exits_cleanly(raw)


@settings(max_examples=RAMPED_FUZZ_EXAMPLES, deadline=None)
@given(schema_valid_configs(presets=RUN_PRESETS, shapes=("sinSquaredRamp",)))
def test_ramped_run_fuzz_exits_cleanly(raw):
    # a ramp step takes about 0.01-0.015 ms at 2 to 6 levels (a 1 ns fig2a ramp
    # from |up,0>, which keeps at most 5 states, on one BLAS thread of a 2-vCPU
    # Xeon).  Runs within the MAX_STEPS bound can take 10^6 ramp steps, 10-15 s;
    # those above 2500 ramp steps (about 0.03 s) are not drawn, which keeps the
    # 200 examples fast.
    size = evolution_size(raw)
    assume(size is None or size[1] <= 2500 or size[0] > MAX_STEPS)
    assert_run_exits_cleanly(raw)


@st.composite
def sweep_and_robustness_configs(draw):
    """A schema-valid fig3a, fig3b or robustness config with 2 or 3 sweep points or 0 to 3
    Monte Carlo samples, and the command that runs it.  Half of them keep the preset's
    device with a pulse of a few pi, a ramp up to 0.1 ns and rates up to 1/ns, so that they
    evolve: most fully redrawn configs are refused before they do."""
    raw = draw(schema_valid_configs(presets=("fig3a", "fig3b", "robustness")))
    if draw(st.booleans()):
        preset = scenario_preset(raw["experiment"])
        raw["device"], raw["overrides"] = preset["device"], {}
        # the presets' g is negative, and the area takes its sign
        raw["pulse"]["areaOverPi"] = draw(st.floats(-5.0, -0.5))
        if "rampTime_ns" in raw["pulse"]:
            raw["pulse"]["rampTime_ns"] = draw(st.floats(0.0, 0.1, exclude_min=True))
        if "sweep" in raw:
            raw["sweep"].update(lo=0.0, hi=draw(st.floats(1e-4, 1.0)))
    if raw["experiment"] == "robustness":
        raw["robustness"] = {
            "errorFraction": draw(st.floats(0.0, 0.5)),
            "samples": draw(st.integers(min_value=0, max_value=3)),
        }
        return "robustness", raw
    raw["sweep"]["points"] = draw(st.integers(min_value=2, max_value=3))
    return "sweep", raw


def largest_ramp_steps(command, raw):
    """The most ramp steps that one evolution of the config's sweep or Monte Carlo takes: the
    sweep's largest g'/g, or every factor of the Monte Carlo at 1 + errorFraction, gives the
    shortest step.  None when the config is refused before it evolves."""
    size = evolution_size(raw)
    if size is None or not size[1]:
        return size and size[1]
    pulse = resolve(raw).pulse
    if command == "sweep":
        g = pulse.g_value
        pulses = [replace(pulse, g_prime_value=r * g) for r in raw["sweep"]["gPrimeOverG"]]
    else:
        f = 1.0 + raw["robustness"]["errorFraction"]
        pulses = [
            replace(
                pulse,
                g_value=f * pulse.g_value,
                g_prime_value=f * pulse.g_prime_value,
                phase_freq=f * pulse.phase_freq,
            )
        ]
    return max(2.0 * pulse.ramp / _ramp_step(p) for p in pulses)


@settings(max_examples=150, deadline=None)
@given(sweep_and_robustness_configs())
def test_sweep_and_robustness_fuzz_exit_cleanly(drawn):
    # rectangular pulses, and ramped ones under the ramped run fuzz's 2500 ramp steps per
    # evolution; each draw evolves 2 to 12 times, on the states its pulse and noise reach
    command, raw = drawn
    steps = largest_ramp_steps(command, raw)
    assume(steps is None or steps <= 2500)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run_cli([command, "--config", str(cfg)])
    assert code in (0, 2, 3, 4), err
    if code == 0:
        strict_loads(out)
    else:
        assert out == ""
        assert err
    assert "Traceback" not in err


def _output_digest():
    """scripts/output_digest.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "value, extra, tol, code, status",
    [
        ("0.5", None, 1e-13, 0, "identical"),
        ("0.50000000000002", None, 1e-13, 0, "e-14"),
        ("0.500000000001", None, 1e-13, 1, "e-12"),
        ("0.500000000001", None, None, 0, "e-12"),
        ("half", None, 1e-13, 1, "differs"),
        ("0.5", "extra.json", 1e-13, 1, "only in"),
        # the same number in other text is byte-different, which --tol 0 refuses
        ("0.50", None, 0, 1, "0.000e+00"),
        ("0.50", None, 1e-13, 0, "0.000e+00"),
    ],
    ids=["identical", "within", "beyond", "no-tol", "differs", "only-in-one", "text-tol-0", "text-tol"],
)
def test_output_digest_compare_exit_code(tmp_path, monkeypatch, capsys, value, extra, tol, code, status):
    # --compare --tol X exits 1 when a file differs, is in one directory only, or
    # moves by more than X, and --tol 0 also when its bytes differ; without --tol
    # it only reports
    a, b = tmp_path / "a", tmp_path / "b"
    for root, cell in ((a, "0.5"), (b, value)):
        (root / "run").mkdir(parents=True)
        (root / "run" / "fig2a.csv").write_text(f"t,rho11\n0.0,{cell}\n")
        (root / "same.json").write_text('{"fidelity": 0.25}')
    if extra:
        (b / extra).write_text("{}")
    argv = ["output_digest.py", "--compare", str(a), str(b)]
    monkeypatch.setattr(sys, "argv", argv + ([] if tol is None else ["--tol", str(tol)]))
    try:
        _output_digest().main()
        exited = 0
    except SystemExit as e:
        exited = e.code
    assert exited == code
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert "identical  same.json" in lines
    assert any(status in line for line in lines if "same.json" not in line)


def test_output_digest_refuses_an_existing_out_dir(tmp_path, monkeypatch, capsys):
    # an OUT_DIR that exists is a usage error (exit 2) before any corpus entry runs, not a
    # FileExistsError traceback
    digest, written = _output_digest(), []
    monkeypatch.setattr(digest, "write_outputs", written.append)
    monkeypatch.setattr(sys, "argv", ["output_digest.py", str(tmp_path)])
    with pytest.raises(SystemExit) as exited:
        digest.main()
    assert exited.value.code == 2
    assert written == []
    err = capsys.readouterr().err
    assert f"OUT_DIR {tmp_path} already exists" in err
    assert "Traceback" not in err


def digest_pair(root):
    """Two output directories: one file identical, one moved, one that differs, and one in
    the second only."""
    a, b = root / "a", root / "b"
    for d, cell, text in ((a, "0.5", "x"), (b, "0.25", "y")):
        d.mkdir()
        (d / "same.json").write_text('{"fidelity": 0.25}')
        (d / "moved.csv").write_text(f"t,rho11\n0.0,{cell}\n")
        (d / "other.svg").write_text(text)
    (b / "extra.json").write_text("{}")
    return a, b


def test_output_digest_compare_ends_with_counts(tmp_path, monkeypatch, capsys):
    a, b = digest_pair(tmp_path)
    monkeypatch.setattr(sys, "argv", ["output_digest.py", "--compare", str(a), str(b)])
    _output_digest().main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[-1] == "4 files: 1 identical, 1 moved, 1 differ, 1 only in one directory"


def test_output_digest_compare_into_a_closed_pipe(tmp_path):
    # a reader that stops early (| head) ends the comparison without a traceback
    a, b = digest_pair(tmp_path)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "output_digest.py"), "--compare", a, b],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr == ""


def test_output_digest_tol_needs_compare(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["output_digest.py", str(tmp_path / "out"), "--tol", "1e-13"])
    with pytest.raises(SystemExit) as exited:
        _output_digest().main()
    assert exited.value.code == 2
    assert "--tol needs --compare" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_output_digest_writes_each_corpus_entry_that_exits_0(tmp_path):
    corpus = Path(__file__).resolve().parent / "corpus"
    expected = json.loads((corpus / "expected.json").read_text())
    passing = {name for name, entry in expected.items() if entry["exit"] == 0}
    assert len(expected) - len(passing) == 7
    _output_digest().write_outputs(tmp_path / "out")
    assert {p.name for p in (tmp_path / "out").iterdir()} == passing
    for name in passing:
        entry = expected[name]
        if entry["argv"] == ["run"]:
            stem = json.loads((corpus / f"{entry['config']}.json").read_text())["experiment"]
            files = {p.name for p in (tmp_path / "out" / name).iterdir()}
            assert files == {f"{stem}.csv", f"{stem}.svg", f"{stem}_summary.json"}, name
