import json
import math
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from device_oracle import angular_to_ghz
from topoflux import device
from topoflux.config import _schema_errors, load_config, load_schema, resolve, validate_raw
from topoflux.errors import ConfigError, ValidityError
from topoflux.presets import preset_names, scenario_preset

TWO_PI = 2.0 * math.pi
CORPUS = Path(__file__).resolve().parent / "corpus"


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

    def test_empty_ratio_list_rejected(self):
        raw = scenario_preset("fig3a")
        raw["sweep"]["gPrimeOverG"] = []
        with pytest.raises(ConfigError) as exc:
            validate_raw(raw)
        assert str(exc.value) == "[] should be non-empty (at '/sweep/gPrimeOverG')"


# what a mutation puts in place of a value: bools, null, strings, lists,
# objects, integral floats, the schema's bounds and numbers outside its ranges
BAD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(["", "x", "sinSquaredRamp", "fig2a", "eta1"]),
    st.lists(st.sampled_from([0.5, -1, True, None, "x"]), max_size=2),
    st.dictionaries(st.sampled_from(["a", "fockLevels"]), st.integers(-1, 1), max_size=1),
    st.integers(-3, 8).map(float),
    st.sampled_from([0, -0.0, 0.5, 1, 1.0, 2, 6]),
    st.sampled_from([-1, 0.75, 6.5, 7, 1e300, -1e300, 2**70]),
)
UNKNOWN_KEYS = st.sampled_from(["extra", "shape", "rampTime_ns", "fockLevels", "alpha"])


def _paths(value, path=()):
    """The path of ``value`` and of everything inside it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(item, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _mutate(raw: dict, data):
    """One random edit: replace a value, delete or add a key, or ask for a ramp without a time."""
    paths = list(_paths(raw))
    edit = data.draw(st.sampled_from(["replace", "delete", "add", "ramp"]))
    if edit == "replace":
        path = data.draw(st.sampled_from(paths[1:]))
        _at(raw, path[:-1])[path[-1]] = data.draw(BAD_VALUES)
    elif edit == "delete":
        keyed = [p for p in paths[1:] if isinstance(_at(raw, p[:-1]), dict)]
        path = data.draw(st.sampled_from(keyed))
        del _at(raw, path[:-1])[path[-1]]
    elif edit == "add":
        path = data.draw(st.sampled_from([p for p in paths if isinstance(_at(raw, p), dict)]))
        _at(raw, path)[data.draw(UNKNOWN_KEYS)] = data.draw(BAD_VALUES)
    elif isinstance(raw.get("pulse"), dict):
        raw["pulse"]["shape"] = "sinSquaredRamp"
        raw["pulse"].pop("rampTime_ns", None)


def _subschemas(schema: dict):
    """``schema`` and every subschema in it, found through the keywords that hold them."""
    yield schema
    for key in ("items", "if", "then"):
        if key in schema:
            yield from _subschemas(schema[key])
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)


class TestSchemaWalker:
    """``_schema_errors`` against jsonschema's draft 2020-12 validator as the oracle."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(preset_names()), st.integers(1, 3), st.data())
    def test_agrees_with_jsonschema_on_mutated_presets(self, name, edits, data):
        raw = scenario_preset(name)
        for _ in range(edits):
            _mutate(raw, data)
        oracle = jsonschema.Draft202012Validator(load_schema()).iter_errors(raw)
        expected = [
            (tuple(e.absolute_path), e.message)
            for e in sorted(oracle, key=lambda e: list(e.absolute_path))
        ]
        walked = sorted(_schema_errors(load_schema(), raw), key=lambda e: e[0])
        assert walked == expected
        if expected:
            path, message = expected[0]
            with pytest.raises(ConfigError) as exc:
                validate_raw(raw)
            assert exc.value.pointer == "/" + "/".join(map(str, path))
            if len(message) <= 200:
                assert str(exc.value) == f"{message} (at '{exc.value.pointer}')"

    def test_implements_every_keyword_of_the_bundled_schema(self):
        # the walker reaches every keyword of a subschema, whatever the value
        for sub in _subschemas(load_schema()):
            list(_schema_errors(sub, None))

    @pytest.mark.parametrize(
        ("schema", "error"),
        [
            ({"pattern": "^a"}, ValueError),
            ({"type": "number", "multipleOf": 2}, ValueError),
            ({"additionalProperties": {"type": "number"}}, ValueError),
            ({"if": {"const": 1}, "then": {"const": 1}, "else": {"const": 2}}, ValueError),
            ({"type": "string"}, KeyError),
            ({"type": ["number", "null"]}, TypeError),
        ],
    )
    def test_unknown_keyword_or_type_raises(self, schema, error):
        with pytest.raises(error):
            list(_schema_errors(schema, "a"))

    @pytest.mark.parametrize(
        ("schema", "value", "valid"),
        [
            ({"type": "number"}, True, False),
            ({"type": "integer"}, False, False),
            ({"type": "integer"}, 2.0, True),
            ({"type": "integer"}, 2.5, False),
            ({"const": 1}, True, False),
            ({"const": 1}, 1.0, True),
            ({"enum": [0, 1]}, False, False),
            ({"const": [1]}, [True], False),
            ({"minimum": 0}, True, True),  # a bound checks numbers only
            ({"minimum": 0}, 0, True),
            ({"exclusiveMinimum": 0}, 0, False),
            ({"maximum": 6}, 6.0, True),
            ({"exclusiveMaximum": 1.0}, 1, False),
        ],
    )
    def test_draft_2020_12_semantics(self, schema, value, valid):
        assert (not list(_schema_errors(schema, value))) == valid

    def test_cli_import_loads_no_jsonschema(self):
        code = "import sys, topoflux.cli; print('jsonschema' in sys.modules)"
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"

    def test_cli_import_loads_no_importlib_resources(self):
        # python -S skips site-packages' .pth files, which may import importlib.resources
        # themselves; src and numpy's parent directory go on the path by hand
        site = Path(np.__file__).resolve().parents[1]
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path[:0] = [{str(src)!r}, {str(site)!r}]; import topoflux.cli; "
            "print('importlib.resources' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, env={}
        )
        assert out.stdout.strip() == "False"


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

    def test_non_finite_regime_check_refused(self, monkeypatch):
        # the report's own floats stay finite: only the walk into its checks sees the inf
        report = device.validity_report

        def inf_check(params, derived):
            validity = report(params, derived)
            checks = (replace(validity.checks[0], value=math.inf), *validity.checks[1:])
            return replace(validity, checks=checks)

        monkeypatch.setattr(device, "validity_report", inf_check)
        with pytest.raises(ConfigError, match="drives the pipeline to inf or nan") as exc:
            resolve(scenario_preset("fig2a"))
        assert exc.value.pointer == "/device"

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

    # the presets and two corpus configs: full overrides, and full overrides whose
    # resonance has no phase, with no derived or validity block
    @pytest.mark.parametrize(
        "name", [*preset_names(), "fig2a_overrides", "fig2a_overrides_unsolved"]
    )
    def test_parameter_echo_records_are_asdict(self, name):
        scn = resolve(json.loads((CORPUS / f"{name}.json").read_text()))
        records = {"device": scn.device, "hilbert": scn.spec, "noise": scn.noise}
        if scn.derived is not None:
            records["derived"] = scn.derived
        expected = {key: asdict(record) for key, record in records.items()}
        if scn.validity is not None:
            expected["validity"] = {**asdict(scn.validity), "all_passed": scn.validity.all_passed}
        echo = scn.parameter_echo()
        assert echo.keys() - expected.keys() == {
            "units",
            "experiment",
            "pulse",
            "operating_point",
        }
        assert {key: echo[key] for key in expected} == expected
        if scn.validity is not None:
            assert type(echo["validity"]["checks"]) is tuple
            assert all(type(check) is dict for check in echo["validity"]["checks"])

    def test_sweep_spec(self):
        scn = resolve(scenario_preset("fig3a"))
        assert scn.sweep.axis == "eta1"
        assert scn.sweep.points == 21
        vals = scn.sweep.values()
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(0.01)
        assert scn.sweep.ratios == (0, 1, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize(
        "lo, hi, points", [(0.01, 0.1, 10), (0.044, 0.158, 8), (0.0, 0.01, 21), (0.02, 0.07, 2)]
    )
    def test_sweep_ends_at_hi(self, lo, hi, points):
        # lo + (points - 1) step rounds to 0.10000000000000002 and 0.15799999999999997 on the
        # first two; every value before the last is still lo + i step
        raw = scenario_preset("fig3a")
        raw["sweep"].update(lo=lo, hi=hi, points=points)
        vals = resolve(raw).sweep.values()
        step = (hi - lo) / (points - 1)
        assert len(vals) == points
        assert vals[-1] == hi
        assert vals[:-1] == [lo + i * step for i in range(points - 1)]

    @pytest.mark.parametrize(
        "preset, block, changes, pointer",
        [
            ("fig3a", "sweep", {"points": 1}, "/sweep/points"),
            ("fig3a", "sweep", {"points": 0}, "/sweep/points"),
            ("fig3a", "sweep", {"points": -3}, "/sweep/points"),
            ("robustness", "robustness", {"samples": -1}, "/robustness/samples"),
            ("robustness", "robustness", {"samples": -5}, "/robustness/samples"),
            ("fig3a", "sweep", {"axis": "eta3"}, "/sweep/axis"),
            ("fig3a", "sweep", {"lo": -1.0}, "/sweep/lo"),
            ("fig3a", "sweep", {"lo": math.nan}, "/sweep/lo"),
            ("fig3a", "sweep", {"ratios": ()}, "/sweep/gPrimeOverG"),
            ("fig3a", "sweep", {"ratios": (-1.0,)}, "/sweep/gPrimeOverG"),
            ("fig3a", "sweep", {"ratios": (0.0, math.nan)}, "/sweep/gPrimeOverG"),
            ("robustness", "robustness", {"error_fraction": 2.0}, "/robustness/errorFraction"),
            ("robustness", "robustness", {"error_fraction": 0.51}, "/robustness/errorFraction"),
            ("robustness", "robustness", {"error_fraction": -0.5}, "/robustness/errorFraction"),
            ("robustness", "robustness", {"error_fraction": math.nan}, "/robustness/errorFraction"),
        ],
    )
    def test_records_refuse_what_the_schema_refuses(self, preset, block, changes, pointer):
        # the schema refuses these values in a config; the public records refuse them too,
        # where a one-point sweep divided by zero, a negative sample count ran no draws, eta3
        # ran as eta2, no ratio ran a sweep of empty rows, a fraction of 2 drew a factor of
        # -1 on g, and a nan ratio or fraction ended in an IntegrationError
        record = getattr(resolve(scenario_preset(preset)), block)
        with pytest.raises(ConfigError) as exc:
            replace(record, **changes)
        assert exc.value.pointer == pointer

    @pytest.mark.parametrize("axis, refused", [("eta1", True), ("eta2", False)])
    def test_sweep_rate_with_no_positive_time(self, axis, refused):
        # tf1 = 1/(2 eta1) is 0 once 2 eta1 overflows; tf2 = 1/eta2 stays positive
        raw = scenario_preset("fig3a")
        raw["sweep"].update(axis=axis, lo=0.0, hi=8.98846567431158e307)
        if refused:
            with pytest.raises(ConfigError, match="leaves no positive tf1") as exc:
                resolve(raw)
            assert exc.value.pointer == "/sweep/hi"
        else:
            assert resolve(raw).sweep.values()[-1] == 8.98846567431158e307

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
