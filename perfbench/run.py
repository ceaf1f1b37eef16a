"""topoflux benchmark runner.

    python3 perfbench/run.py --workload <scenario|sweep|robustness|ramped> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; topoflux is imported from ``src/``.
One process, one caller, closed loop: each call starts when the previous one
has returned.  Whole rotations of the workload's calls are repeated until
``--seconds`` have passed, so every run holds the same mix of calls.

``--trace 0`` prints the end-to-end metrics.  Their times are in reference
seconds: each wall time is rescaled by the host's speed, sampled with slices
of a fixed kernel run all through the calls and the set-ups (see
hostspeed.py), because on a shared machine the wall time of the same call
varies by up to 3x.  The wall-time figures are printed beside them.
``--trace 1`` traces the set-up, runs each call of one rotation twice,
untraced and then with timing wrappers installed, and prints the per-layer
metrics; its counts repeat exactly from run to run.
Every call is checked against ``refs.json``; a call that raises or fails the
check counts as failed and the run goes on.  The last line of standard output
is the JSON result; the full record (environment, every metric, and for a
traced run the spans) goes to ``perfbench/out/``.

BENCHMARK.json lists the scenario and ramped workloads.  A sweep call (14
evolutions) and a robustness call (12) each take 15-20 s while evolutions
take about a second, too few calls per run to give a steady figure on a
shared machine; they run here on request and join BENCHMARK.json once an
evolution takes milliseconds.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# name -> (unit, better); BENCHMARK.json lists the same names.  Both times are
# in reference seconds (see hostspeed.py); evolutions_per_s takes each input at
# its median call of the run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "evolutions_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed on every untraced run but not bounded: they follow the machine's load
# from run to run, are zero on a healthy run, or need more calls than a run has
REPORTED = {
    "evolutions_per_wall_s": "1/s",
    "setup_wall_s": "s",
    "host_speed": "ratio",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "failed_frac": "ratio",
    "fidelity_err_max": "abs",
}
SETUP_REPEATS = 5
# kept in step with workloads.WORKLOADS, which cannot be imported before src/ is on the path
WORKLOADS = ("scenario", "sweep", "robustness", "ramped")


def _environment() -> dict:
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": None,
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo") as f:
            models = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        if models:
            env["cpu_model"] = models[0]
    except OSError:
        pass
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    # only look at a repository rooted in this checkout, never at a parent directory's
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


@dataclass(slots=True)
class Outcome:
    label: str
    seconds: float
    evolutions: int  # completed by a call that passed the check; 0 otherwise
    errors: list[str]
    fid_err: float
    ref_seconds: float = 0.0  # ``seconds`` at the reference host speed


def run_call(call, complete: bool, clock=None) -> Outcome:
    """Time one call, then check its result; a failure is recorded, never raised.

    With a ``clock`` (hostspeed.Clock) the call is also timed in reference seconds.
    """
    from workloads import compare

    call.prepare()
    mark = clock.mark() if clock else time.perf_counter()
    try:
        result = call.invoke()
        errors = []
    except (Exception, SystemExit) as e:
        errors = [f"raised {type(e).__name__}: {e}"]
    seconds, ref_seconds = clock.since(mark) if clock else (time.perf_counter() - mark, 0.0)
    if errors:
        return Outcome(call.label, seconds, 0, errors, 0.0, ref_seconds)
    try:
        errors, fid_err = compare(call.values(result), call.expected, complete)
    except Exception as e:  # a malformed result of any shape is a failed call
        errors, fid_err = [f"check {type(e).__name__}: {e}"], 0.0
    evolutions = 0 if errors else call.evolutions
    return Outcome(call.label, seconds, evolutions, errors, fid_err, ref_seconds)


def _tail(durations: list[float]):
    """Highest percentile with at least ten calls above it, or None if there is none."""
    n = len(durations)
    if n <= 10:
        return None
    k = n - 10
    return sorted(durations)[k - 1], 100.0 * k / n


def _gate_summary(outcomes: list[Outcome]) -> dict:
    failed = [o for o in outcomes if o.errors]
    for o in failed[:5]:
        print(f"FAILED {o.label}: {'; '.join(o.errors[:3])}", file=sys.stderr)
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "fidelity_err_max": max((o.fid_err for o in outcomes), default=0.0),
    }


class _SetupSampler:
    """Set-up times: this process's own plus those of fresh set-up-only processes.

    The extra set-ups are spread over the run so that their median does not
    hang on one short stretch of machine load.  Each process times its own
    set-up with its own hostspeed.Clock; this one's clock stops meanwhile.
    """

    def __init__(self, workload: str, seed: int, smoke: bool, own: tuple, clock):
        self.clock = clock
        self.wall = [own[0]]
        self.samples = [own[1]]
        self.seconds_spent = 0.0
        self._cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        self._cmd += ["--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])

    def take(self):
        if len(self.samples) >= SETUP_REPEATS:
            return
        t0 = time.perf_counter()
        self.clock.stop()
        try:
            proc = subprocess.run(self._cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        finally:
            self.clock.start()
        self.seconds_spent += time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        own = json.loads(proc.stdout.strip().splitlines()[-1])
        self.wall.append(own["setup_wall_s"])
        self.samples.append(own["setup_s"])


def _timed(calls, seconds: float, complete: bool, setups: _SetupSampler) -> list[Outcome]:
    """Whole rotations until ``seconds`` have passed; the extra set-ups evenly between calls."""
    outcomes = []
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - setups.seconds_spent

    while True:
        for c in calls:
            outcomes.append(run_call(c, complete, setups.clock))
            if elapsed() >= len(setups.samples) * seconds / SETUP_REPEATS:
                setups.take()
        if elapsed() >= seconds:
            break
    while len(setups.samples) < SETUP_REPEATS:
        setups.take()
    return outcomes


def _traced(build, complete: bool):
    """Trace the set-up, then run each call untraced and traced, under the same machine load."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.call_id = -1  # the set-up
    tracer.install()
    try:
        t0 = time.perf_counter()
        calls = build()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    outcomes = []
    overhead = 0.0
    for i, c in enumerate(calls):
        plain = run_call(c, complete)
        tracer.call_id = i
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = run_call(c, complete)
            wall += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        overhead += traced.seconds - plain.seconds
        outcomes += [plain, traced]
    metrics = layer_metrics(tracer.spans, wall)
    metrics["trace.overhead_s"] = overhead
    return outcomes, metrics, tracer


def run_workload(workload, seed, seconds, trace, smoke=False, refs=None):
    """Run one workload and return its full record (see the module docstring)."""
    import workloads
    from hostspeed import Clock

    if refs is None:
        refs = json.loads((HERE / "refs.json").read_text())[workload]
    work = OUT / f"work-{workload}-{os.getpid()}"
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    record["smoke"] = smoke

    def build():
        return workloads.build(workload, work, refs, seed, smoke)

    try:
        if trace:
            outcomes, layer, tracer = _traced(build, complete=not smoke)
            record["layer_metrics"] = layer
            record["missing_wrappers"] = tracer.missing
            record["spans"] = tracer.dump()
        else:
            clock = Clock()
            clock.start()
            try:
                calls = build()
                own = clock.since(clock.mark(start=_T0))
                setups = _SetupSampler(workload, seed, smoke, own, clock)
                outcomes = _timed(calls, seconds, not smoke, setups)
            finally:
                clock.stop()
            record["setup_samples_s"] = setups.samples
            record["setup_wall_samples_s"] = setups.wall
            record["kernel_slices"] = len(clock.slices)
            record["end_to_end"] = _end_to_end(outcomes, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(_gate_summary(outcomes))
    record["calls"] = [
        [o.label, o.seconds, o.evolutions, len(o.errors), o.ref_seconds] for o in outcomes
    ]
    return record


def _median_rotation_rate(outcomes: list[Outcome], seconds) -> float:
    """Evolutions per second of one rotation with every input at its median passing call.

    Only time inside calls counts, so the benchmark's own checking is not
    charged to topoflux.
    """
    by_label = {}
    for o in outcomes:
        if not o.errors:
            by_label.setdefault(o.label, []).append(o)
    rotation_s = sum(statistics.median(seconds(o) for o in runs) for runs in by_label.values())
    evolutions = sum(runs[0].evolutions for runs in by_label.values())
    return evolutions / rotation_s if rotation_s else 0.0


def _end_to_end(outcomes: list[Outcome], setups: _SetupSampler) -> dict:
    durations = [o.seconds for o in outcomes]
    m = {
        "setup_s": statistics.median(setups.samples),
        "evolutions_per_s": _median_rotation_rate(outcomes, lambda o: o.ref_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "evolutions_per_wall_s": _median_rotation_rate(outcomes, lambda o: o.seconds),
        "setup_wall_s": statistics.median(setups.wall),
        "host_speed": setups.clock.host_speed(),
        "call_p50_s": statistics.median(durations),
        "failed_frac": sum(1 for o in outcomes if o.errors) / len(outcomes),
        "fidelity_err_max": max(o.fid_err for o in outcomes),
    }
    tail = _tail(durations)
    if tail is not None:
        m["call_tail_s"], m["call_tail_pct"] = tail
    m["calls"] = len(durations)
    return m


def _print_report(record: dict):
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"correctness: attempted={record['attempted']} failed={record['failed']}")
    if record["trace"]:
        from tracing import LAYER_METRICS

        for name, (unit, _, target) in LAYER_METRICS.items():
            print(f"  {name:28s} {record['layer_metrics'][name]:14.6g} {unit:6s} -> {target}")
        if record["missing_wrappers"]:
            print("  missing wrappers: " + ", ".join(record["missing_wrappers"]))
        return
    m = record["end_to_end"]
    n = m["calls"]
    notes = {
        "setup_s": f"median of {len(record['setup_samples_s'])} set-ups, reference seconds",
        "evolutions_per_s": "each input at its median call, reference seconds",
        "evolutions_per_wall_s": "each input at its median call, wall seconds",
        "setup_wall_s": "median, wall seconds",
        "host_speed": f"reference slice time / median of {record['kernel_slices']} slices",
        "call_p50_s": f"n={n}",
        "failed_frac": f"{record['failed']}/{record['attempted']}",
    }
    if "call_tail_s" in m:
        notes["call_tail_s"] = f"p{m['call_tail_pct']:.0f}, n={n}"
    for name, unit in [(k, v[0]) for k, v in END_TO_END.items()] + list(REPORTED.items()):
        if name in m:
            print(f"  {name:22s} {m[name]:14.6g} {unit:6s} {notes.get(name, '')}")
        else:
            print(f"  {name:22s} {'-':>14s} {unit:6s} not reported: {n} calls, need more than 10")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest call set of each workload")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "topoflux" / "__init__.py").is_file():
        print(f"perfbench: no topoflux sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import topoflux

    if Path(topoflux.__file__).resolve().parent != SRC / "topoflux":
        print(f"perfbench: imported topoflux from {topoflux.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.setup_only:
        import workloads
        from hostspeed import Clock

        work = OUT / f"work-{args.workload}-{os.getpid()}"
        clock = Clock()
        clock.start()
        try:
            workloads.build(args.workload, work, {}, args.seed, args.smoke)
            wall, ref = clock.since(clock.mark(start=_T0))
        finally:
            clock.stop()
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": ref, "setup_wall_s": wall}))
        return 0

    record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    record["env"] = _environment()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    _print_report(record)

    if args.trace:
        from tracing import LAYER_METRICS

        names = {k: v[0] for k, v in LAYER_METRICS.items()}
        values = record["layer_metrics"]
    else:
        names = {k: v[0] for k, v in END_TO_END.items()}
        values = record["end_to_end"]
    result = {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
