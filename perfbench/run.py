"""gaugeflow benchmark: one workload, one seed, closed loop, one client.

    python3 perfbench/run.py --workload canon --seed 1 --seconds 15 --trace 0

Run from the root of a gaugeflow checkout; the package is imported from its
src/ directory. With --trace 0 the run repeats whole cycles through the
workload's op mix for --seconds seconds. Its end-to-end metrics are op costs
in units of a reference kernel timed alongside the ops, each op's cost being
the median over its repetitions; wall-clock figures are printed as well. With
--trace 1 it runs one set-up and then a fixed number of cycles under the span
wrappers, each after an untraced cycle, and reports per-layer metrics plus the
tracing overhead. Every line but the last is a readable report; the last line
is one JSON object {"correct", "attempted", "failed", "metrics"}. See
DESIGN.md.
"""

import os
import sys
import time

# pin BLAS and OpenMP pools before numpy loads: a 2-thread OpenBLAS stalls
# the small eigh calls in the canonicalizer by an order of magnitude
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# one core for the whole process, so ops and the reference kernel see the
# same core; the cKDTree workers in theorylab then share it
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.dont_write_bytecode = True     # leave no .pyc files in the checkout
# keep bytecode next to its source, inside the checkout, whatever
# PYTHONPYCACHEPREFIX says; the import probe relies on it
sys.pycache_prefix = None

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7      # set-ups in an untraced run, spread over its duration
# what workloads.py imports; a set-up sample imports it in a fresh interpreter
IMPORTS = "numpy, scipy, gaugeflow, gaugeflow.flowcore.training, gaugeflow.flowcore.toydata"
END_TO_END = {   # name -> unit; "ref" is one run of the reference kernel
    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
    "op_cost_p50": "ref", "op_cost_p90": "ref", "items_per_ref": "1/ref",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["canon", "mol-train", "mol-sample", "toy-theory"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for smoke.py")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one canon gauge before its check, for smoke.py")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def environment(scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = next(int(line.split()[1]) for line in open("/proc/self/status")
                       if line.startswith("Threads:"))
    except (OSError, StopIteration):
        threads = -1
    return {
        "git_rev": git_rev(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "process_threads": threads,
    }


class Runner:
    """Runs ops, times them, checks them and keeps every failure.

    Host contention on a shared VM changed core speed by up to 2.6x, in phases
    lasting seconds to minutes. So a fixed reference kernel is timed next to
    the ops, at least every CALIBRATE_S, and each timed part is also expressed
    as a cost in units of that kernel's time. Each part is keyed by its input;
    its raw time and its cost are the medians over its repetitions in the run.
    """

    CALIBRATE_S = 0.2

    def __init__(self, workload, seed):
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.items: dict = {}
        rng = np.random.default_rng(0)
        sym = rng.standard_normal((32, 32))
        self._kernel_args = (rng.standard_normal((400, 48)), rng.standard_normal((48, 48)),
                             sym + sym.T, rng.standard_normal((1024, 152)))
        self.ref_s = self.calibrate()
        self.ref_at = time.perf_counter()

    def _kernel(self) -> float:
        """The kinds of work the package does: BLAS matmuls, small eigh calls,
        many calls on small arrays, a pass over a pair-sized array, and number
        formatting and parsing; then, as in the tape, 100 medium matmuls with
        a little elementwise work each. Host phases slow some of these kinds
        far more than others, so the kernel holds them all (see DESIGN.md)."""
        x, a, sym, pairs = self._kernel_args
        total = sum(float(np.tanh((x @ a)[i]).sum()) for i in range(100))
        for i in range(12):
            total += float((x @ a)[i, 0])
        for _ in range(3):
            total += float(np.linalg.eigh(sym)[0][0])
        for i in range(75):
            total += float(np.argsort(sym[i % 32])[0]) + float(np.abs(sym[i % 32]).sum())
        total += float((pairs * 0.5 + 1.0).sum())
        return total + sum(float(f"{v:10.4f}") for v in sym[:12].ravel())

    def calibrate(self) -> float:
        """Reference kernel time, fastest of three back-to-back runs."""
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - start)
        return min(runs)

    def run_cycle(self, index: int, times: dict, costs: dict, tracer=None,
                  before_op=None) -> None:
        for spec in self.wl.cycle(index):
            if before_op is not None:
                before_op()
            op = self.attempted
            self.attempted += 1
            if time.perf_counter() - self.ref_at > self.CALIBRATE_S:
                self.ref_s, self.ref_at = self.calibrate(), time.perf_counter()
            ref_before = self.ref_s
            if tracer is not None:
                tracer.op_id = op
            start = time.perf_counter()
            try:
                out = self.wl.run(spec)
                seconds = time.perf_counter() - start
                problems = self.wl.check(spec, out)
            except Exception:       # a failing op is counted, never fatal
                problems = [traceback.format_exc(limit=3).strip().replace("\n", " | ")]
            if problems:
                self.failures.append(f"FAILED workload={self.wl.name} seed={self.seed} "
                                     f"cycle={index} op={op}: " + "; ".join(problems))
                continue
            ref = ref_before
            if seconds > self.CALIBRATE_S:      # long op: average the kernel around it
                self.ref_s, self.ref_at = self.calibrate(), time.perf_counter()
                ref = 0.5 * (ref_before + self.ref_s)
            for key, part_s, items in self.wl.timings(spec, out, seconds):
                times.setdefault(key, []).append(part_s)
                costs.setdefault(key, []).append(part_s / ref)
                self.items[key] = items


def medians(times: dict) -> dict:
    return {key: statistics.median(values) for key, values in times.items()}


def op_stats(wl, items: dict, per_key: dict) -> tuple[float, float, float]:
    """(p50, p90 over the cycle's ops, items per unit) from per-key medians."""
    typical = medians(per_key)
    if not typical:
        return -1.0, -1.0, -1.0
    ops = wl.op_times(typical)
    busy = sum(t for key, t in typical.items() if items[key])
    return (float(np.percentile(ops, 50)), float(np.percentile(ops, 90)),
            sum(items[key] for key in typical) / busy)


class ImportProbe:
    """Times the package import in fresh interpreters. They import a copy of
    src/gaugeflow that this run compiles first, so the time includes no
    compiling and no __pycache__ left in the checkout changes it. numpy and
    scipy load from their installed bytecode."""

    CODE = (f"import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            f"import {IMPORTS}; print(time.perf_counter() - t)")

    def __init__(self, workdir: str):
        self.src = os.path.join(workdir, "src")
        shutil.copytree(SRC / "gaugeflow", os.path.join(self.src, "gaugeflow"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(self.src, quiet=1)
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}

    def __call__(self) -> float:
        child = subprocess.run([sys.executable, "-B", "-c", self.CODE, self.src], env=self.env,
                               capture_output=True, text=True, check=True, timeout=120)
        return float(child.stdout)


def setup_sample(wl, probe: ImportProbe) -> float:
    """One set-up: the import in a fresh interpreter plus the preparation."""
    import_s = probe()
    start = time.perf_counter()
    wl.prepare()
    return import_s + time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gaugeflow" / "__init__.py").is_file():
        print(f"error: {SRC / 'gaugeflow'} not found; run from a gaugeflow checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scipy
    import gaugeflow
    import workloads            # imports every gaugeflow module the ops use
    if not Path(gaugeflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gaugeflow from {gaugeflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import resource
    import tracer as tracing

    env = environment(scipy)
    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=outdir, prefix="work-")
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        wl.inject_fault = args.inject_fault
        times: dict = {}
        costs: dict = {}

        if args.trace == 0:
            # set-ups are spread over the run, so their median sees the same
            # host phases as the ops; the time they take is not measured time
            probe = ImportProbe(workdir)
            samples = 1 if args.smoke else SETUP_SAMPLES
            setups = [setup_sample(wl, probe)]
            runner = Runner(wl, args.seed)
            start, paused = time.perf_counter(), [0.0]

            def measured() -> float:
                return time.perf_counter() - start - paused[0]

            def take_due_setups() -> None:
                # checked before every op, not every cycle, so that a run of
                # two or three long cycles does not take its set-ups in bursts
                while len(setups) < samples and measured() >= len(setups) * args.seconds / samples:
                    pause = time.perf_counter()
                    setups.append(setup_sample(wl, probe))
                    paused[0] += time.perf_counter() - pause

            cycles = 0
            while cycles == 0 or measured() < args.seconds:
                runner.run_cycle(cycles, times, costs, before_op=take_due_setups)
                cycles += 1
            while len(setups) < samples:
                setups.append(setup_sample(wl, probe))
            p50, p90, rate = op_stats(wl, runner.items, costs)
            metrics = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": (runner.attempted - len(runner.failures)) / runner.attempted,
                "op_cost_p50": p50, "op_cost_p90": p90, "items_per_ref": rate,
            }
            units = dict(END_TO_END)
            header = (f"{cycles} cycles, {runner.attempted} ops in "
                      f"{measured():.3f} s; items are {wl.items}; "
                      f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s; "
                      f"last reference kernel {1e3 * runner.ref_s:.3f} ms")
        else:
            # one traced set-up (op id -1), then untraced and traced cycles
            # alternate, so both see the same host phases; the overhead
            # compares their per-input median costs
            tracer = tracing.Tracer()
            tracer.install()
            start = time.perf_counter()
            try:
                wl.prepare()
            finally:
                setup_traced_s = time.perf_counter() - start
                tracer.uninstall()
            runner = Runner(wl, args.seed)
            traced_times: dict = {}
            traced_costs: dict = {}
            traced_counters = dict(wl.counters)
            i, cycles = 0, 1
            while i < cycles:
                start = time.perf_counter()
                runner.run_cycle(i, times, costs)
                if i == 0 and not args.smoke:    # half the time untraced, half traced
                    cycles = max(1, round(args.seconds / 2 / (time.perf_counter() - start)))
                wl.counters, traced_counters = traced_counters, wl.counters
                tracer.install()
                try:
                    runner.run_cycle(i, traced_times, traced_costs, tracer)
                finally:
                    tracer.uninstall()
                    wl.counters, traced_counters = traced_counters, wl.counters
                i += 1
            wl.counters = traced_counters
            summary = tracer.summary()
            traced_s = setup_traced_s + sum(sum(v) for v in traced_times.values())
            metrics, units = per_layer(summary, tracer.computed, wl.exact_counters(), traced_s)
            metrics["trace_overhead_frac"] = (sum(wl.op_times(medians(traced_costs)))
                                              / sum(wl.op_times(medians(costs))) - 1.0)
            units["trace_overhead_frac"] = "frac"
            tracer.write(outdir / f"spans-{args.workload}-seed{args.seed}.csv.gz")
            header = (f"1 set-up and {cycles} cycles traced, {cycles} cycles untraced; "
                      f"{traced_s:.3f} s traced; {len(tracer.spans)} spans")
            for line in predictions(args.workload, summary, wl.counters):
                print(line)
            for name, (calls, self_s) in summary.items():
                if calls:
                    print(f"layer {name}: calls={calls} self_s={self_s:.6f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {header}")
    print("env " + json.dumps(env, sort_keys=True))
    # wall-clock figures, from per-input median times; the gated metrics are costs
    p50, p90, rate = op_stats(wl, runner.items, times)
    raw = {"op_ms_p50": (1e3 * p50, "ms"), "op_ms_p90": (1e3 * p90, "ms"),
           "items_per_s": (rate, "1/s")}
    for name, (value, unit) in raw.items():
        print(f"figure {name} = {value!r} {unit}")
    for generic, own in wl.aliases.items():
        print(f"figure {own} = {raw[generic][0]!r} {raw[generic][1]} (= {generic})")
    for name, (value, unit) in wl.figures(medians(times)).items():
        print(f"figure {name} = {value!r} {unit}")
    failed = len(runner.failures)
    print(f"figure failed_frac = {failed / runner.attempted!r} frac "
          f"({failed} of {runner.attempted} ops)")
    for name, value in sorted(wl.exact_counters().items()):
        print(f"counter {name} = {value!r}")
    for line in runner.failures:
        print(line)
    for name in metrics:
        print(f"metric {name} = {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def per_layer(summary, computed, counters, traced_s):
    """Per-layer metrics of the traced set-up and cycles, and their units.
    Self time is given as a share of all traced time."""
    metrics, units = {}, {}
    for name, (calls, self_s) in summary.items():
        metrics[f"{name}.calls"], units[f"{name}.calls"] = float(calls), "count"
        metrics[f"{name}.self_frac"], units[f"{name}.self_frac"] = self_s / traced_s, "frac"
    for name, value in computed.items():
        metrics[name] = value
        units[name] = "GFLOP" if name.endswith("gflop") else "count"
    for name in ("canonicalizer.degenerate_frac", "sampler.canonicalize_calls",
                 "sampler.clipped_coords", "theorylab.checks_passed_frac"):
        metrics[name] = float(counters.get(name, 0.0))
        units[name] = "frac" if name.endswith("frac") else "count"
    return metrics, units


def predictions(workload, summary, counters):
    """The zero and equality predictions stated for the baseline."""
    calls = {name: c for name, (c, _) in summary.items()}
    checks = []
    if workload in ("canon", "mol-sample"):
        checks.append(("flowcore.tape.backward.calls == 0", calls["flowcore.tape.backward"] == 0))
    if workload in ("mol-train", "mol-sample"):
        checks.append(("coupling.ot_pair.calls == 0", calls["coupling.ot_pair"] == 0))
    if workload != "toy-theory":
        checks.append(("theorylab.*.calls == 0", not any(
            c for name, c in calls.items() if name.startswith("theorylab."))))
    else:
        pairwise = [f"flowcore.tape.{op}" for op in ("repeat_rows", "tile_rows", "pairwise_dot",
                                                      "block_mean_rows", "coord_mix")]
        checks.append(("pairwise tape ops calls == 0", not any(calls[n] for n in pairwise)))
    if workload == "mol-sample":
        steps = counters.get("sampler.regime_b_steps", 0.0)
        checks.append((f"canonicalizer.canonicalize.calls == regime-b steps ({steps:g})",
                       calls["canonicalizer.canonicalize"] == steps))
    return [f"prediction {text}: {'holds' if ok else 'VIOLATED'}" for text, ok in checks]


if __name__ == "__main__":
    sys.exit(main())
