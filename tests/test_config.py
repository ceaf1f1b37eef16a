import json
import math
from pathlib import Path

import jsonschema
import pytest

from device_oracle import angular_to_ghz
from topoflux.config import load_config, load_schema, resolve, validate_raw
from topoflux.errors import ConfigError, ValidityError
from topoflux.presets import preset_names, scenario_preset

TWO_PI = 2.0 * math.pi


class TestSchema:
    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(load_schema())

    def test_all_presets_validate(self):
        for name in preset_names():
            validate_raw(scenario_preset(name))

    def test_unknown_top_level_key(self):
        raw = scenario_preset("fig2a")
        raw["extra"] = 1
        with pytest.raises(ConfigError):
            validate_raw(raw)

    def test_unknown_nested_key_reports_pointer(self):
        raw = scenario_preset("fig2a")
        raw["device"]["EJ_Ghz_typo"] = 1.0
        with pytest.raises(ConfigError) as exc:
            validate_raw(raw)
        assert "/device" in str(exc.value)

    def test_missing_required(self):
        raw = scenario_preset("fig2a")
        del raw["device"]["alpha"]
        with pytest.raises(ConfigError):
            validate_raw(raw)

    def test_wrong_type(self):
        raw = scenario_preset("fig2a")
        raw["pulse"]["areaOverPi"] = "minus one"
        with pytest.raises(ConfigError) as exc:
            validate_raw(raw)
        assert "/pulse/areaOverPi" in str(exc.value)

    def test_bad_schema_version(self):
        raw = scenario_preset("fig2a")
        raw["schemaVersion"] = 2
        with pytest.raises(ConfigError):
            validate_raw(raw)

    def test_sweep_experiment_needs_sweep_block(self):
        raw = scenario_preset("fig3a")
        del raw["sweep"]
        with pytest.raises(ConfigError):
            validate_raw(raw)

    def test_robustness_needs_block(self):
        raw = scenario_preset("robustness")
        del raw["robustness"]
        with pytest.raises(ConfigError):
            validate_raw(raw)

    def test_ramp_shape_needs_ramp_time(self):
        raw = scenario_preset("fig2a")
        raw["pulse"]["shape"] = "sinSquaredRamp"
        with pytest.raises(ConfigError):
            validate_raw(raw)

    def test_zero_area_rejected(self):
        raw = scenario_preset("fig2a")
        raw["pulse"]["areaOverPi"] = 0
        with pytest.raises(ConfigError):
            validate_raw(raw)


class TestResolution:
    def test_unit_conversion(self):
        scn = resolve(scenario_preset("fig2a"))
        d = scn.device
        assert d.ej == pytest.approx(TWO_PI * 158.0)
        assert d.delta0 == pytest.approx(TWO_PI * 32.5)
        assert d.v_fermi == pytest.approx(100.0)
        assert d.temperature == pytest.approx(2.618, abs=2e-3)

    def test_resonance_solved_when_phi_absent(self):
        scn = resolve(scenario_preset("fig2a"))
        assert scn.phi_c == pytest.approx(-1.73, abs=0.01)
        assert angular_to_ghz(scn.pulse.g_value) == pytest.approx(-2.06, abs=0.01)
        assert angular_to_ghz(scn.pulse.g_prime_value) == pytest.approx(-1.04, abs=0.01)
        # on resonance the phase frequency equals the plasma frequency
        assert scn.pulse.phase_freq == pytest.approx(scn.derived.omega_f, rel=1e-12)

    def test_explicit_phi_wins(self):
        raw = scenario_preset("fig2a")
        raw["device"]["phiC_rad"] = -1.7
        scn = resolve(raw)
        assert scn.phi_c == -1.7

    def test_resonance_target_override(self):
        scn = resolve(scenario_preset("altParams"))
        assert angular_to_ghz(scn.pulse.phase_freq) == pytest.approx(50.0, rel=1e-12)
        assert scn.phi_c == pytest.approx(-0.646, abs=0.01)
        assert scn.pulse.g_prime_value / scn.pulse.g_value == pytest.approx(3.0, rel=0.02)

    def test_coupling_overrides_bypass_pipeline(self):
        raw = scenario_preset("fig2a")
        raw["overrides"] = {"g_GHz": -2.0, "gPrime_GHz": -1.0, "E_GHz": 50.0}
        scn = resolve(raw)
        assert scn.pulse.g_value == pytest.approx(TWO_PI * -2.0)
        assert scn.pulse.g_prime_value == pytest.approx(TWO_PI * -1.0)
        assert scn.pulse.phase_freq == pytest.approx(TWO_PI * 50.0)
        # pipeline still ran and is echoed
        assert scn.derived is not None

    def test_full_overrides_rescue_off_branch_phi(self):
        raw = scenario_preset("fig2a")
        raw["device"]["phiC_rad"] = -0.1  # gap region
        raw["overrides"] = {"g_GHz": -2.0, "gPrime_GHz": -1.0, "E_GHz": 50.0}
        scn = resolve(raw)
        assert scn.derived is None
        assert scn.pulse.g_value == pytest.approx(TWO_PI * -2.0)

    def test_off_branch_without_overrides_raises(self):
        raw = scenario_preset("fig2a")
        raw["device"]["phiC_rad"] = -0.1
        with pytest.raises(ValidityError):
            resolve(raw)

    def test_noise_defaults_from_device(self):
        scn = resolve(scenario_preset("fig2a"))
        assert scn.noise.enabled
        assert scn.noise.tf1 == 900.0
        assert scn.noise.tf2 == 20.0

    def test_noise_override(self):
        raw = scenario_preset("fig2a")
        raw["noise"] = {"enabled": True, "Tf2_ns": 40.0}
        scn = resolve(raw)
        assert scn.noise.tf2 == 40.0
        assert scn.noise.tf1 == 900.0

    def test_parameter_echo_is_complete(self):
        scn = resolve(scenario_preset("fig2a"))
        echo = scn.parameter_echo()
        assert echo["device"]["ej"] == pytest.approx(TWO_PI * 158.0)
        assert echo["operating_point"]["g"] == scn.pulse.g_value
        assert echo["derived"]["omega_f"] == scn.derived.omega_f
        assert echo["validity"]["all_passed"] is True
        assert {c["name"] for c in echo["validity"]["checks"]} == {
            "coupling_ratio",
            "energy_over_g",
            "strong_branch",
        }

    def test_sweep_spec(self):
        scn = resolve(scenario_preset("fig3a"))
        assert scn.sweep.axis == "eta1"
        assert scn.sweep.points == 21
        vals = scn.sweep.values()
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(0.01)
        assert scn.sweep.ratios == (0, 1, 2, 3, 4, 5, 6)

    def test_hilbert_levels(self):
        raw = scenario_preset("fig2a")
        raw["hilbert"] = {"fockLevels": 4}
        scn = resolve(raw)
        assert scn.spec.n_fock == 4
        assert scn.spec.dim == 8


class TestLoadConfig:
    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_preset("fig2a")))
        scn = load_config(path)
        assert scn.experiment == "fig2a"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)


class TestPresets:
    def test_names_are_the_shipped_configs(self):
        cfg_dir = Path(__file__).resolve().parents[1] / "configs"
        assert sorted(preset_names()) == sorted(p.stem for p in cfg_dir.glob("*.json"))

    @pytest.mark.parametrize("name", ["nope", "../pyproject", "fig2a.json"])
    def test_unknown_name(self, name):
        with pytest.raises(KeyError):
            scenario_preset(name)

    def test_each_call_returns_a_fresh_copy(self):
        raw = scenario_preset("fig2a")
        raw["device"]["alpha"] = 0.9
        assert scenario_preset("fig2a")["device"]["alpha"] == 0.8

    def test_every_preset_resolves(self):
        for name in preset_names():
            assert resolve(scenario_preset(name)).experiment == name
