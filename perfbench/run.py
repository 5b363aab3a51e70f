#!/usr/bin/env python3
"""graphflow benchmark: one workload per run, from a single process.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_flow --seed 1 --seconds 20 --trace 0

Workloads: grid_flow, tsui_verify, tsui_converge, catalog (see NOTES.md).

With ``--trace 0`` the run makes passes over the workload's operations for
``--seconds`` (at least MIN_PASSES passes), checks every output, and reports
the end-to-end metrics ``wall_s``, ``setup_s``, ``peak_rss_mb`` and
``ref_err``. Times are calibrated against a fixed kernel run between
operations (see CAL_REF_S); the raw times are printed and kept too. With
``--trace 1`` it makes untraced passes for the first half of ``--seconds``,
then passes with every public graphflow function wrapped in a span, and
reports the per-layer metrics of ``Tracer.op_metrics`` plus the tracing
overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results, machine
details and spans are also written under ``perfbench/out/``.

``--write-reference`` runs each workload once at the default seed and
rewrites ``reference.json`` from its outputs.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread, for this process and the set-up probes it starts
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# one CPU for this process and the probes it starts, so that the calibration
# kernel always runs on the core whose speed it stands for
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
MIN_PASSES = 3       # passes over the operations per run, whatever --seconds says
SETUP_PROBES = 5     # set-ups per run that make setup_s, each in a fresh process
PROBE_TIMEOUT_S = 60

# Host-speed calibration. The shared host this was built on runs the same code
# 1.3-2x slower for stretches of seconds to minutes, so a raw time spreads by
# up to 40 % between runs whatever statistic is taken inside a run. A fixed
# kernel of small numpy operations in a Python loop, with a 3x3 SVD every
# fourth step (the mix graphflow's operations are made of), slows down with
# it. It runs between operations on the same CPU, for CAL_SHARE of the time
# of the operation before it, and each time is reported divided by the
# kernel's time around it, in units of CAL_REF_S: the kernel's time on that
# host when it is quiet.
CAL_STEPS = 500
CAL_REF_S = 0.003
CAL_SHARE = 0.05


def import_graphflow() -> None:
    """Import graphflow from this checkout's src/, or stop without a result."""
    src = ROOT / "src"
    if not (src / "graphflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: graphflow sources not found in {src}")
    sys.path.insert(0, str(src))
    import graphflow

    if Path(graphflow.__file__).resolve().parent != (src / "graphflow").resolve():
        sys.exit(f"perfbench: imported graphflow from {graphflow.__file__}, not from {src}")
    import jsonschema  # noqa: F401  (part of set-up: graphflow.app imports it)
    import numpy  # noqa: F401
    import scipy  # noqa: F401


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def calibrate(min_s: float = 0.0) -> float:
    """Mean seconds of one run of the fixed calibration kernel, over at least one run
    and at least ``min_s`` seconds."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    m = np.array([[1.0, 0.2, 0.3], [0.1, 0.9, 0.4], [0.2, 0.3, 1.1]])
    runs = 0
    acc = 0.0
    t0 = time.perf_counter()
    while True:
        for i in range(CAL_STEPS):
            acc += float((np.sin(x) * x + np.cos(x)).sum())
            if i % 4 == 0:
                acc += float(np.linalg.svd(m, compute_uv=False)[0])
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return elapsed / runs


def set_up(name: str, seed: int, out_dir: Path):
    import_graphflow()
    import workloads

    return workloads.WORKLOADS[name](seed, str(out_dir))


def setup_probes(args) -> list:
    """(raw, calibrated) set-up seconds of SETUP_PROBES fresh processes.

    Each probe is timed from inside, and calibrated by this process's
    calibration kernel run just before and just after it.
    """
    def host():
        return statistics.median(calibrate() for _ in range(5))

    out = []
    cal_before = host()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        raw = float(proc.stdout.strip().splitlines()[-1])
        cal_after = host()
        out.append((raw, 2.0 * raw / (cal_before + cal_after) * CAL_REF_S))
        cal_before = cal_after
    return out


def load_reference(name: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[name]


class Runner:
    """Runs passes over a workload's operations, timing each and checking its output."""

    def __init__(self, workload, seed: int):
        import workloads

        self.workload = workload
        self.reference = load_reference(workload.name) if seed == 0 else None
        self.compare = workloads.compare
        self.times = {label: [] for label, _ in workload.operations}  # raw seconds
        self.ratios = {label: [] for label, _ in workload.operations}  # ÷ calibration
        self.pass_scale: list = []  # calibrated ÷ raw time of each pass
        self.ref_errs: list = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run_pass(self, before=None, after=None) -> None:
        """One pass: every operation once, timed between calibrations; then every output
        checked."""
        results = []
        raw = calibrated = 0.0
        if before:
            before()
        try:
            cal_before = calibrate()
            for label, call in self.workload.operations:
                self.attempted += 1
                try:
                    t0 = time.perf_counter()
                    result = call()
                    elapsed = time.perf_counter() - t0
                except Exception:  # an operation that raises is a failed operation
                    self.failed += 1
                    self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
                    cal_before = calibrate()
                    continue
                cal_after = calibrate(CAL_SHARE * elapsed)
                self.times[label].append(elapsed)
                self.ratios[label].append(2.0 * elapsed / (cal_before + cal_after))
                raw += elapsed
                calibrated += CAL_REF_S * self.ratios[label][-1]
                cal_before = cal_after
                results.append((label, result))
        finally:
            if after:
                after()
        self.passes += 1
        self.pass_scale.append(calibrated / raw if raw else 1.0)
        ref_err = []
        for label, result in results:
            failures, err, numbers = self.workload.check(label, result)
            if self.reference is not None:
                prefix = label + "."
                failures += self.compare(
                    {k[len(prefix):]: v for k, v in self.reference.items() if k.startswith(prefix)},
                    numbers)
            if err is not None:
                ref_err.append(err)
            if failures:
                self.failed += 1
                self.failures.extend(f"{label}: {f}" for f in failures)
        if ref_err:
            self.ref_errs.append(max(ref_err))

    def _median_sum(self, samples: dict) -> float:
        missing = [label for label, times in samples.items() if not times]
        if missing:
            sys.exit(f"perfbench: {self.workload.name}: {missing} never completed:\n"
                     f"{self.failures[0]}")
        return sum(statistics.median(times) for times in samples.values())

    def wall_s(self) -> float:
        """Sum over the operations of each one's median calibrated time."""
        return CAL_REF_S * self._median_sum(self.ratios)

    def raw_wall_s(self) -> float:
        """Sum over the operations of each one's median time, uncalibrated."""
        return self._median_sum(self.times)


def measure(args, workload) -> dict:
    runner = Runner(workload, args.seed)
    t_begin = time.perf_counter()
    while runner.passes < MIN_PASSES or time.perf_counter() - t_begin < args.seconds:
        runner.run_pass()
    wall_s = runner.wall_s()
    if not runner.ref_errs:
        sys.exit(f"perfbench: {args.workload}: no pass produced ref_err:\n{runner.failures[0]}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = setup_probes(args)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(cal for _, cal in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ref_err": (statistics.median(runner.ref_errs), "1"),
    }
    pass_s = [sum(t) for t in zip(*runner.times.values())]
    extra = {"failed_ratio": (runner.failed / runner.attempted, "1"),
             "wall_s.raw": (runner.raw_wall_s(), "s"),
             "setup_s.raw": (statistics.median(raw for raw, _ in setups), "s"),
             "setup_s.this_process": (args.setup_s, "s"),
             "pass_s.min": (min(pass_s), "s"),
             "pass_s.max": (max(pass_s), "s"), "passes": (runner.passes, "count")}
    return report(args, runner, metrics, {"op_s": runner.times, "op_ratio": runner.ratios,
                                          "setup_s": setups}, extra)


def measure_traced(args, workload) -> dict:
    from tracer import Tracer

    untraced = Runner(workload, args.seed)
    t_begin = time.perf_counter()
    while untraced.passes < MIN_PASSES or time.perf_counter() - t_begin < args.seconds / 2:
        untraced.run_pass()
    runner = Runner(workload, args.seed)
    tracer = Tracer()
    while runner.passes < MIN_PASSES or time.perf_counter() - t_begin < args.seconds:
        tracer.begin_op()
        runner.run_pass(before=tracer.install, after=tracer.uninstall)
    runner.attempted += untraced.attempted
    runner.failed += untraced.failed
    runner.failures += untraced.failures
    # self times are calibrated pass by pass, like wall_s; counts are not
    per_pass = [{name: (value * scale if unit == "s" else value, unit)
                 for name, (value, unit) in values.items()}
                for values, scale in zip(tracer.op_metrics(), runner.pass_scale)]
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.wall_s"] = (runner.wall_s(), "s")
    metrics["trace.overhead_s"] = (runner.wall_s() - untraced.wall_s(), "s")
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(str(trace_dir / f"{args.workload}-seed{args.seed}.npz"))
    shares = tracer.shares()
    for span, share in list(shares.items())[:8]:
        print(f"self-time share {share:7.2%}  {span}")
    return report(args, runner, metrics,
                  {"untraced_op_s": untraced.times, "traced_op_s": runner.times},
                  extra={}, shares=shares)


def report(args, runner, metrics: dict, samples: dict, extra: dict, shares=None) -> dict:
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name}: {value:.6g} {unit}")
    for failure in runner.failures[:20]:
        print(f"perfbench: {args.workload}: {failure}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "samples": samples,
              "extra": {k: v for k, (v, _) in extra.items()}, "failures": runner.failures,
              "self_time_shares": shares, **result}
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"machine: {json.dumps(record['machine'])}")
    return result


def write_reference(names) -> None:
    import workloads

    reference = {}
    if REFERENCE.exists():
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    for name in names:
        workload = workloads.WORKLOADS[name](0, str(OUT / name))
        numbers = {}
        for label, call in workload.operations:
            failures, _, found = workload.check(label, call())
            if failures:
                sys.exit(f"perfbench: {name} fails its checks, reference not written: "
                         f"{failures}")
            numbers.update({f"{label}.{key}": value for key, value in found.items()})
        reference[name] = numbers
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("grid_flow", "tsui_verify", "tsui_converge",
                                               "catalog"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.write_reference:
        import_graphflow()
        write_reference([args.workload] if args.workload else
                        ["grid_flow", "tsui_verify", "tsui_converge", "catalog"])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    out_dir = OUT / args.workload
    if args.setup_probe:
        set_up(args.workload, args.seed, OUT / f"{args.workload}-probe")
        print(time.perf_counter() - T_START)
        return 0
    workload = set_up(args.workload, args.seed, out_dir)
    args.setup_s = time.perf_counter() - T_START
    result = measure_traced(args, workload) if args.trace else measure(args, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
