"""monoplex benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload ap-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory. A run sets the workload's inputs up in fresh processes,
makes whole passes over the workload's operations until --seconds have
gone by, times fixed reference work after each pass, reruns each compare
with --shards 2 to check its outputs, and prints the result as the last
line of standard output. --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced passes, runs the layer probes,
writes the spans to .bench_runs/ and reports the per-layer metrics. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Numeric libraries get no more threads than this process may use CPUs;
# the variables must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(len(os.sched_getaffinity(0))))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import CLI_LAYERS, MOMENTS_LAYERS, Tracer, capture_hook, patched, span_hook  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

SETUP_REPEATS = 7

# Reference work, timed after every untraced pass. The machine's speed
# drifts by 10-15% over tens of seconds with the load of the host, and a
# pure-Python loop plus an in-place numpy sort drift with the passes. Times
# are scaled to a machine that does the reference work in REF_NOMINAL_S.
REF_NOMINAL_S = 0.3
REF_LOOP = 2_400_000
REF_SORTS = 15


def _reference_data():
    import numpy as np

    src = np.random.default_rng(0).random(1_000_000)
    return src, np.empty_like(src)


def reference_work(data) -> float:
    """Seconds for a fixed pure-Python loop plus REF_SORTS in-place sorts of
    data[0] (copied into data[1]); about REF_NOMINAL_S on 2 cores at 2.1 GHz."""
    src, buf = data
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP):
        s += i & 7
    for _ in range(REF_SORTS):
        buf[:] = src
        buf.sort()
    return time.perf_counter() - t0


# Per-layer metrics aggregated over spans: (metric, layer, what, unit).
LAYER_METRICS = (
    ("simulate.mc_us_per_rep", "simulate.mc", "us_per_unit", "us"),
    ("simulate.exact_us_per_coloring", "simulate.exact", "us_per_unit", "us"),
    ("laws.target_s", "laws.target", "seconds", "s"),
    ("laws.tv_s", "laws.tv", "seconds", "s"),
    ("families.build_s", "families.build", "seconds", "s"),
    ("moments.report_s", "moments.report", "seconds", "s"),
    ("core.overlap_us_per_edge", "core.overlap", "us_per_unit", "us"),
    ("serialize.load_s", "serialize.load", "seconds", "s"),
    ("cli.output_s", "cli.output", "seconds", "s"),
    ("cli.self_s", "cli", "seconds", "s"),
    ("simulate.replicates", "simulate.mc", "units", "count"),
    ("simulate.colorings_exact", "simulate.exact", "units", "count"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _timed_setup(args, inputs: Path) -> float:
    """Seconds from starting a fresh interpreter until it has written the
    workload's inputs (imports, specs, structure files)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-into", str(inputs)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return elapsed


class Runner:
    def __init__(self, cli, ops) -> None:
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one_pass(self, tracer=None) -> dict:
        """Every operation once, closed loop; wall time, compare time and colorings."""
        wall = compare_s = 0.0
        colorings = 0
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = workloads.quiet(self.cli, op.argv)
                else:
                    with tracer.span("cli", 0, op.name):
                        rc = workloads.quiet(self.cli, op.argv)
            except Exception as exc:  # a crashing operation counts as failed
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            wall += dt
            self.attempted += op.ops
            if rc != 0:
                self.failed += op.ops
                self.errors.append(f"{op.name}: {rc}")
            elif op.argv[0] == "compare":
                compare_s += dt
                colorings += op.colorings
        return {"wall_s": wall, "compare_s": compare_s, "colorings": colorings}


def _verify(cli, ops, inputs: Path, outputs: Path, probe_inputs, workload: str, seed: int) -> list[str]:
    """Rerun each compare with --shards 2 while keeping its laws, run the
    multi-block shard comparisons, then every output check. Returns the
    failures."""
    failures = []
    for op in ops:
        try:
            if op.check is not None:
                op.check(json.loads(op.output.read_text()), op.name)
                continue
            captured: list = []
            with patched([(cli, CLI_LAYERS)], capture_hook(captured)):
                rc = workloads.quiet(cli, op.shards_argv)
            if rc != 0:
                raise checks.CheckError(f"{op.name}: --shards 2 rerun exited {rc}")
            shards2 = Path(op.shards_argv[op.shards_argv.index("--out") + 1]) / "results.csv"
            checks.check_same_bytes(op.output.read_bytes(), shards2.read_bytes(),
                                    f"{op.name}: results.csv, --shards 1 vs 2")
            workloads.check_compare(op, captured, op.name)
        except Exception as exc:  # any error while checking means the output is unverified
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    for name, *argvs in workloads.multi_block_shard_runs(workload, inputs, outputs, seed):
        try:
            for argv in argvs:
                if (rc := workloads.quiet(cli, argv)) != 0:
                    raise checks.CheckError(f"--shards {argv[argv.index('--shards') + 1]} run exited {rc}")
            one, two = (Path(argv[argv.index("--out") + 1]) / "results.csv" for argv in argvs)
            checks.check_same_bytes(one.read_bytes(), two.read_bytes(),
                                    f"{name}: results.csv at {workloads.SHARD_CHECK_REPLICATES} replicates, --shards 1 vs 2")
        except Exception as exc:  # any error while checking means the output is unverified
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    if workload == "preset-sweep":
        from probes import check_backends

        try:
            check_backends(probe_inputs(), workloads.spec_seed(seed))
        except Exception as exc:  # any error while checking means the output is unverified
            failures.append(f"backends: {type(exc).__name__}: {exc}")
    return failures


def _layer_metrics(tracer, passes: int) -> dict:
    """Median over the traced passes of each layer metric, then one metric
    per Monte Carlo probe."""
    per_pass = [
        tracer.layer_totals([s for s in tracer.spans if s["phase"] == "pass" and s["pass"] == i])
        for i in range(passes)
    ]
    probe = tracer.layer_totals([s for s in tracer.spans if s["phase"] == "probe"])
    out = {}
    for name, layer, what, unit in LAYER_METRICS:
        # A layer the workload's passes never reach is measured on the probes.
        samples = [t[layer] for t in per_pass if layer in t] or [probe[layer]]
        if what == "units":  # the same in every pass; median_low keeps it a whole number
            out[name] = {"value": statistics.median_low(t["units"] for t in samples), "unit": unit}
            continue
        if what == "seconds":
            values = [t["self_s"] for t in samples]
        else:
            values = [1e6 * t["self_s"] / t["units"] for t in samples]
        out[name] = {"value": statistics.median(values), "unit": unit}
    for s in tracer.spans:
        if s["phase"] == "probe" and s["name"] == "simulate.mc":
            out[f"simulate.{s['label']}_us_per_rep"] = {
                "value": 1e6 * (s["end"] - s["start"]) / s["units"], "unit": "us"}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "monoplex" / "__init__.py").is_file():
        print(f"error: no monoplex sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import monoplex
    from monoplex import cli

    if Path(monoplex.__file__).resolve().parent != (SRC / "monoplex").resolve():
        print(f"error: imported monoplex from {monoplex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_into:
        workloads.setup(args.workload, Path(args.setup_into), args.seed)
        return 0

    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        inputs, outputs = work / "inputs", work / "outputs"
        # The first set-up writes the inputs the passes read.
        setups = [_timed_setup(args, inputs) for _ in range(1 if args.trace else SETUP_REPEATS)]
        runner = Runner(cli, workloads.operations(args.workload, inputs, outputs, args.seed))
        from probes import ProbeInputs

        probe_inputs = functools.cache(ProbeInputs)
        metrics = (_traced(args, cli, runner, probe_inputs()) if args.trace
                   else _untraced(args, runner, setups))
        failures = _verify(cli, runner.ops, inputs, outputs, probe_inputs, args.workload, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in runner.errors + failures:
        print(f"{args.workload}: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def _untraced(args, runner: Runner, setups: list[float]) -> dict:
    """Passes until --seconds of them have run, each followed by the
    reference work. The pass time and the coloring rate are totals over the
    run, scaled by REF_NOMINAL_S over the mean reference time; setup_s is
    the median of the set-ups, unscaled."""
    data = _reference_data()
    passes, refs = [], []
    while not passes or sum(p["wall_s"] for p in passes) < args.seconds:
        passes.append(runner.one_pass())
        refs.append(reference_work(data))
    speed = REF_NOMINAL_S / statistics.mean(refs)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "scaled_wall_s": {"value": speed * sum(p["wall_s"] for p in passes) / len(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "scaled_colorings_per_s": {
            "value": sum(p["colorings"] for p in passes) / (speed * sum(p["compare_s"] for p in passes)),
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def _traced(args, cli, runner: Runner, probe_inputs: "ProbeInputs") -> dict:
    """Alternate untraced and traced passes, then run the probes traced.
    Returns the per-layer metrics."""
    import monoplex.moments
    from probes import run_probes

    tracer = Tracer()
    tables = [(cli, CLI_LAYERS), (monoplex.moments, MOMENTS_LAYERS)]
    data = _reference_data()
    untraced, traced, refs = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        if len(untraced) <= len(traced):
            untraced.append(runner.one_pass()["wall_s"])
            refs.append(reference_work(data))
            continue
        tracer.pass_index = len(traced)
        with patched(tables, span_hook(tracer)):
            traced.append(runner.one_pass(tracer)["wall_s"])
    tracer.phase = "probe"
    with patched(tables, span_hook(tracer)):
        run_probes(tracer, probe_inputs, workloads.spec_seed(args.seed))
    metrics = _layer_metrics(tracer, len(traced))
    overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    metrics["run.wall_s"] = {"value": statistics.mean(untraced), "unit": "s"}
    metrics["run.ref_s"] = {"value": statistics.mean(refs), "unit": "s"}
    RUNS.mkdir(exist_ok=True)
    trace_file = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({"spans": tracer.spans, "metrics": metrics}) + "\n")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
