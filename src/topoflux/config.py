"""Scenario configuration: JSON loading, schema validation, unit resolution.

The bundled ``schema/scenario.schema.json`` is the one statement of what a
config may hold.  ``validate_raw`` checks a config against it with a small
walker, ``_schema_errors``, that implements the JSON Schema (draft 2020-12)
keywords the schema uses, in jsonschema's words; a schema with any other
keyword is refused, so no check can be skipped silently.

On-disk units mirror the usual experimental quotes: frequencies in GHz
(ordinary, i.e. omega/2pi), times in ns, lengths in um, velocities in m/s,
temperature in mK.  ``resolve`` converts everything to the internal rad/ns
system and runs the device pipeline once, so a resolved scenario is fully
self-describing: summaries echo its records as they are, each as a dict of
its fields.  A phase ``phi_c`` left unsolved because full overrides replace
the resonance condition stays ``None`` and is echoed as ``null``.

Numbers are parsed strictly: ``NaN``, ``Infinity`` and literals that overflow
a float are a ``ConfigError``, never a value that reaches the pipeline.  So
are a device value or an override that overflows in internal units, a pulse
that cannot be built, a sweep with ``lo >= hi`` or fewer than 2 points, a
Monte Carlo with a negative number of samples, any other value the schema
refuses in a ``sweep`` or ``robustness`` block, and a sweep or Monte Carlo
asking for more than ``MAX_EVALUATIONS`` evolutions.  ``SweepSpec`` and
``RobustnessSpec`` refuse their own, so a record made outside ``resolve``
(by ``dataclasses.replace``, say) is refused too.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

from . import device as dev
from .dynamics import NoiseParams, PulseSegment, pulse_duration_for_area
from .errors import ConfigError, ValidityError
from .hilbert import HilbertSpec

# the experiments each command runs, in the order its refusal lists them; under sweep and
# robustness, each but custom needs the block named after the command
COMMAND_EXPERIMENTS = {
    "run": ("fig2a", "fig2b", "altParams", "custom"),
    "sweep": ("fig3a", "fig3b", "custom"),
    "robustness": ("robustness",),
}
# evolutions one sweep (points x ratios) or Monte Carlo (9 + samples) may ask
# for; the presets ask for 147 and 109
MAX_EVALUATIONS = 100_000


@functools.cache
def load_schema() -> dict:
    """The bundled scenario schema, read once; callers share it and must not modify it.  It is
    read by path, beside this module: ``importlib.resources`` would add its import to every
    start of the command line."""
    path = Path(__file__).parent / "schema" / "scenario.schema.json"
    return json.loads(path.read_text("utf-8"))


def _check_evaluations(evaluations: int, pointer: str):
    if evaluations > MAX_EVALUATIONS:
        raise ConfigError(
            f"{evaluations} evaluations exceed the limit of {MAX_EVALUATIONS}", pointer=pointer
        )


@dataclass(frozen=True)
class SweepSpec:
    """Decoherence-rate sweep: eta1 = 1/(2 tf1) or eta2 = 1/tf2, in 1/ns."""

    axis: str
    lo: float
    hi: float
    points: int
    ratios: tuple[float, ...]  # g'/g family, one output column each

    def __post_init__(self):
        # each refusal is the schema's, so nan is refused too
        if self.axis not in ("eta1", "eta2"):
            raise ConfigError(
                f"axis must be eta1 or eta2, got {self.axis!r}", pointer="/sweep/axis"
            )
        if not self.lo >= 0.0:
            raise ConfigError(f"lo must be >= 0, got {self.lo}", pointer="/sweep/lo")
        if not self.ratios or not all(r >= 0.0 for r in self.ratios):
            raise ConfigError(
                f"g'/g ratios must be one or more numbers >= 0, got {list(self.ratios)}",
                pointer="/sweep/gPrimeOverG",
            )
        # values() needs both ends
        if self.points < 2:
            raise ConfigError(f"need at least 2 points, got {self.points}", pointer="/sweep/points")
        if not self.lo < self.hi:
            raise ConfigError(f"need lo < hi, got [{self.lo}, {self.hi}]", pointer="/sweep")
        # eta1 = 1/(2 tf1): above half the largest double, 2 eta1 overflows and tf1 is 0
        if self.axis == "eta1" and not 1.0 / (2.0 * self.hi) > 0.0:
            raise ConfigError(f"eta1 = {self.hi} leaves no positive tf1", pointer="/sweep/hi")
        _check_evaluations(self.points * len(self.ratios), "/sweep")

    def values(self):
        """The axis values lo + i (hi - lo) / (points - 1), the last one hi exactly."""
        step = (self.hi - self.lo) / (self.points - 1)
        return [self.lo + i * step for i in range(self.points - 1)] + [self.hi]


@dataclass(frozen=True)
class RobustnessSpec:
    error_fraction: float
    samples: int

    def __post_init__(self):
        # the schema's bounds, written so that nan is refused too
        if not 0.0 <= self.error_fraction <= 0.5:
            raise ConfigError(
                f"errorFraction must lie in [0, 0.5], got {self.error_fraction}",
                pointer="/robustness/errorFraction",
            )
        if self.samples < 0:
            raise ConfigError(
                f"samples must not be negative, got {self.samples}", pointer="/robustness/samples"
            )
        # the nominal point and the eight corners run besides the samples
        _check_evaluations(9 + self.samples, "/robustness")


def _fields(record) -> dict:
    """A dataclass record as a dict of its fields, the values themselves: what ``asdict``
    gives for a record whose fields hold no record, list or dict.  A copy of the record's
    ``vars``, which hold its fields and nothing else."""
    return dict(vars(record))


@dataclass
class Scenario:
    """Fully resolved run description in internal units."""

    experiment: str
    device: dev.DeviceParams
    spec: HilbertSpec
    pulse_area: float  # rad
    ramp_time: float
    pulse: PulseSegment  # the nominal pulse and operating point, timed for the nominal g
    noise: NoiseParams
    sample_period: float | None
    phi_c: float | None  # None when full overrides replace an unsolvable resonance
    derived: dev.DerivedCouplings | None
    validity: dev.ValidityReport | None
    sweep: SweepSpec | None
    robustness: RobustnessSpec | None

    def parameter_echo(self) -> dict:
        """Resolved parameters (internal units) for self-describing summaries."""
        echo = {
            "units": {"angular_frequency": "rad/ns", "time": "ns", "length": "um"},
            "experiment": self.experiment,
            "device": _fields(self.device),
            "hilbert": _fields(self.spec),
            "pulse": {
                "area": self.pulse_area,
                "shape": "sinSquaredRamp" if self.pulse.ramp else "rectangular",
                "ramp_time": self.ramp_time,
            },
            "noise": _fields(self.noise),
            "operating_point": {
                "phi_c": self.phi_c,
                "g": self.pulse.g_value,
                "g_prime": self.pulse.g_prime_value,
                "phase_freq": self.pulse.phase_freq,
            },
        }
        if self.derived is not None:
            echo["derived"] = _fields(self.derived)
        if self.validity is not None:
            echo["validity"] = {
                **_fields(self.validity),
                "checks": tuple(_fields(check) for check in self.validity.checks),
                "all_passed": self.validity.all_passed,
            }
        return echo


# the types the schema names; another raises KeyError
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    # a bool is not a number, and 2.0 is an integer
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
# keyword: (refused when, message)
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}
# keywords that check nothing; "then" is read by "if"
_ANNOTATIONS = frozenset({"$schema", "title", "then"})


def _equal(a, b) -> bool:
    """JSON equality: a bool equals only itself, in lists and objects too; 1 equals 1.0."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _schema_errors(schema: dict, value, path: tuple = ()):
    """Yield (path, message) for each way ``value`` breaks ``schema``.

    Keywords are visited in the schema's order and their messages are
    jsonschema's, so the first error by path is the one a draft 2020-12
    validator reports first.  A keyword this walker does not implement
    raises ValueError when it is reached, whatever the value.
    """
    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif key in _BOUNDS:
            refused, text = _BOUNDS[key]
            if _TYPES["number"](value) and refused(value, arg):
                yield path, f"{value!r} {text} {arg!r}"
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(sub, value[name], path + (name,))
        elif key == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                extras = sorted(set(value) - schema.get("properties", {}).keys(), key=str)
                if extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "required":
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif key == "const":
            if not _equal(value, arg):
                yield path, f"{arg!r} was expected"
        elif key == "enum":
            if not any(_equal(each, value) for each in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _schema_errors(arg, item, path + (i,))
        elif key == "if":
            if "then" in schema and next(_schema_errors(arg, value, path), None) is None:
                yield from _schema_errors(schema["then"], value, path)
        elif key not in _ANNOTATIONS:
            raise ValueError(f"schema keyword {key!r}: {arg!r} is not implemented")


def validate_raw(raw: dict):
    """Check a raw config dict against the bundled schema, then across its blocks.

    The first error by path is a ConfigError with its JSON pointer and
    jsonschema's message for it; unknown keys are rejected.
    """
    try:
        # min keeps the first of equal paths, as a stable sort would
        error = min(_schema_errors(load_schema(), raw), key=lambda e: e[0], default=None)
    except RecursionError:  # an error message reprs the offending value
        raise ConfigError("config nests too deeply to validate") from None
    if error is not None:
        path, message = error
        pointer = "/" + "/".join(str(p) for p in path)
        # the message repeats the offending value: keep only the two ends of a long one
        if len(message) > 200:
            message = f"{message[:100]} ... {message[-100:]}"
        raise ConfigError(message, pointer=pointer)
    _cross_checks(raw)


def _cross_checks(raw: dict):
    exp = raw["experiment"]
    for block in ("sweep", "robustness"):
        if exp != "custom" and exp in COMMAND_EXPERIMENTS[block] and block not in raw:
            raise ConfigError(f"experiment {exp!r} needs a {block} block", pointer=f"/{block}")
    if raw["pulse"].get("areaOverPi") == 0:
        raise ConfigError("pulse area must be nonzero", pointer="/pulse/areaOverPi")


def _internal(block: dict, key: str, convert, unit: str, pointer: str) -> float:
    """``convert(block[key])``; a value too large for a float in internal units is a ConfigError."""
    value = convert(block[key])
    if not math.isfinite(value):
        raise ConfigError(f"{block[key]} {unit} overflows in internal units", pointer=pointer + key)
    return value


def _device_from_raw(d: dict) -> dev.DeviceParams:
    """The device block in internal units, refused with a ConfigError when out of float range.

    That is a value that overflows or underflows in internal units, or a scale
    of the pipeline (theta, zeta, omega_f, Delta0 L / vF or vF / L) that is
    zero, not finite or has no finite reciprocal; the pipeline would carry it
    on into a nan or inf validity message.
    """

    def internal(key, convert, unit):
        return _internal(d, key, convert, unit, "/device/")

    try:
        params = dev.DeviceParams(
            alpha=d["alpha"],
            beta=d["beta"],
            ej=internal("EJ_GHz", dev.ghz_to_angular, "GHz"),
            ej_over_ec=d["EJ_over_EC"],
            delta0=internal("delta0_GHz", dev.ghz_to_angular, "GHz"),
            v_fermi=internal("vF_m_per_s", dev.m_per_s_to_um_per_ns, "m/s"),
            length=d["L_um"],
            tf1=d["Tf1_ns"],
            tf2=d["Tf2_ns"],
            temperature=internal("temperature_mK", dev.mk_to_angular, "mK"),
        )
    except ValueError as e:  # a positive value that underflows to zero
        raise ConfigError(str(e), pointer="/device") from None
    theta, zeta, omega_f = dev.derive_statics(params)
    scales = {
        "theta": theta,
        "zeta": zeta,
        "omega_f": omega_f,
        "Delta0 L / vF": params.delta0 * params.length / params.v_fermi,
        "vF / L": params.v_fermi / params.length,
    }
    for name, value in scales.items():
        if not (value != 0.0 and math.isfinite(value) and math.isfinite(1.0 / value)):
            raise ConfigError(f"the device block gives {name} = {value:.3g}", pointer="/device")
    return params


def _override(overrides: dict, key: str) -> float:
    """An override in rad/ns; one too large for a float in those units is a ConfigError."""
    return _internal(overrides, key, dev.ghz_to_angular, "GHz", "/overrides/")


def resolve(raw: dict) -> Scenario:
    """Validate and resolve a raw config into internal units.

    The device pipeline runs here; explicit overrides of g, g' and E make a
    pipeline validity failure non-fatal, otherwise it propagates.  The
    nominal pulse is built here too, once: every runner uses it, or a copy
    with other couplings that keeps its timing.
    """
    validate_raw(raw)
    params = _device_from_raw(raw["device"])
    overrides = raw.get("overrides", {})

    _, _, omega_f = dev.derive_statics(params)
    omega_res = (
        _override(overrides, "resonanceTarget_GHz")
        if "resonanceTarget_GHz" in overrides
        else omega_f
    )

    full_override = all(k in overrides for k in ("g_GHz", "gPrime_GHz", "E_GHz"))
    derived = None
    validity = None
    phi_c = raw["device"].get("phiC_rad")
    try:
        if phi_c is None:
            phi_c = dev.solve_resonant_phase(params, omega_res)
        derived = dev.derive_couplings(params, phi_c)
        validity = dev.validity_report(params, derived)
    except ValidityError:
        if not full_override:
            raise
    except ArithmeticError as e:  # ZeroDivisionError, or OverflowError from **
        raise ConfigError(f"the device block overflows the pipeline ({e})", "/device") from None
    # the report's checks are records of their own, so every float is a record's field
    checks = validity.checks if validity is not None else ()
    values = [v for r in (derived, validity, *checks) if r is not None for v in _fields(r).values()]
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise ConfigError("the device block drives the pipeline to inf or nan", pointer="/device")

    g = _override(overrides, "g_GHz") if "g_GHz" in overrides else derived.g
    g_prime = _override(overrides, "gPrime_GHz") if "gPrime_GHz" in overrides else derived.g_prime
    phase_freq = _override(overrides, "E_GHz") if "E_GHz" in overrides else derived.energy

    noise_raw = raw.get("noise", {})
    noise = NoiseParams(
        tf1=noise_raw.get("Tf1_ns", params.tf1),
        tf2=noise_raw.get("Tf2_ns", params.tf2),
        enabled=noise_raw.get("enabled", True),
    )

    sweep = None
    if "sweep" in raw:
        s = raw["sweep"]
        sweep = SweepSpec(
            axis=s["axis"],
            lo=s["lo"],
            hi=s["hi"],
            points=int(s["points"]),  # the schema's integers include 3.0
            ratios=tuple(s["gPrimeOverG"]),
        )
    robustness = None
    if "robustness" in raw:
        r = raw["robustness"]
        robustness = RobustnessSpec(error_fraction=r["errorFraction"], samples=int(r["samples"]))

    pulse = raw["pulse"]
    area = pulse["areaOverPi"] * math.pi
    ramp_time = pulse.get("rampTime_ns", 0.0)
    # a rectangular pulse has no ramps, whatever its rampTime_ns
    ramp = ramp_time if pulse.get("shape") == "sinSquaredRamp" else 0.0
    try:
        nominal = PulseSegment(pulse_duration_for_area(area, g, ramp), g, g_prime, phase_freq, ramp)
    except ValueError as e:
        raise ConfigError(str(e), pointer="/pulse") from None

    return Scenario(
        experiment=raw["experiment"],
        device=params,
        spec=HilbertSpec(int(raw.get("hilbert", {}).get("fockLevels", 2))),
        pulse_area=area,
        ramp_time=ramp_time,
        pulse=nominal,
        noise=noise,
        sample_period=raw.get("integration", {}).get("samplePeriod_ns"),
        phi_c=phi_c,
        derived=derived,
        validity=validity,
        sweep=sweep,
        robustness=robustness,
    )


def _finite_number(text: str, convert=float):
    # json accepts NaN, Infinity and literals beyond float range; a config may not
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config has a non-finite number ({value})")
    return convert(text)


def load_config(path) -> Scenario:
    """Read a UTF-8 JSON scenario file and resolve it."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(
                f,
                parse_float=_finite_number,
                parse_int=functools.partial(_finite_number, convert=int),
                parse_constant=_finite_number,
            )
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    except RecursionError:
        raise ConfigError("config is not valid JSON: it nests too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return resolve(raw)
