#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of autonet at NREN scale.

Builds the benchmark driver (perfbench/driver, linked against the
library in src/) into the build directory, runs one workload in its own
process and prints every metric by name and unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones.

    python3 perfbench/run.py --workload nren-edit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both kinds of run
    python3 perfbench/run.py --selftest            # attribution self-test

Besides the workloads BENCHMARK.json declares, three reference
workloads run the `run` and `analyze` verbs on the NREN model and a
36-run campaign (nren-run, nren-analyze, sweep). They are not declared
because their wall time drifts too much on a shared host to gate
changes (see NOTES.md); their layers are probed in the declared
workloads' traced runs.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build,
relative to the repository root; all scratch files live under it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 170
REFERENCE_WORKLOADS = ["nren-run", "nren-analyze", "sweep"]
MIN_COVERAGE = 0.95
# Layers whose self times partition a workload's traced iteration (its
# other per-layer metrics come from probes outside the iterations), and
# the one that must be largest: the attribution the benchmark reproduces.
BUILD_LAYERS = ["topology.load_ms", "anm.load_ms", "design.ms", "compiler.ms",
                "render.ms", "verify.lint_ms"]
ITERATION_LAYERS = {
    "nren-run": (BUILD_LAYERS + ["deploy.ms", "measure.ms", "measure.validate_ospf_ms",
                                 "measure.reachability_ms"], "measure.reachability_ms"),
    "nren-analyze": (BUILD_LAYERS + ["analysis.model_ms", "analysis.predict_ms",
                                     "analysis.paths_ms"], "analysis.paths_ms"),
    "nren-build": (BUILD_LAYERS, "verify.lint_ms"),
    "nren-edit": (BUILD_LAYERS, "verify.lint_ms"),
    "sweep": (["experiment.campaign_ms"], "experiment.campaign_ms"),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", jobs])
    # The compiler's temporary files stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as sink:
        for step in steps:
            if shutil.which(step[0]) is None:
                fail(f"{step[0]} not found")
            if subprocess.run(step, cwd=ROOT, env=env, stdout=sink,
                              stderr=subprocess.STDOUT).returncode != 0:
                # A failed configure must not leave a cache that skips it next time.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                tail = log.read_text(errors="replace").splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    driver = out / "perfbench_driver"
    if not driver.exists():
        fail(f"build produced no driver at {driver}")
    return driver


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_driver(driver, workload, seed, seconds, trace, inject=None):
    """Runs one workload in its own process; returns (notes, result)."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-root", str(work)]
    if inject:
        cmd += ["--inject", inject]
    env = dict(os.environ, TMPDIR=str(work))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: driver exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: driver printed no result line")
    return lines[:-1], result


def declared(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def shape(spec, workload, result, trace):
    """Checks the driver's metrics against BENCHMARK.json. A declared
    workload must report every declared metric. A reference workload's
    per-layer metrics of layers it does not exercise are reported as 0.
    Measured metrics BENCHMARK.json does not declare are printed only."""
    want = declared(spec, trace)
    got = result["metrics"]
    metrics, extra, absent = {}, {}, []
    for name, metric in got.items():
        if name not in want:
            extra[name] = metric
            continue
        if metric["unit"] != want[name]:
            fail(f"{workload}: {name} has unit {metric['unit']}, declared {want[name]}")
        metrics[name] = metric
    for name, unit in want.items():
        if name not in metrics:
            if not trace or workload not in REFERENCE_WORKLOADS:
                kind = "per-layer" if trace else "end-to-end"
                fail(f"{workload}: {kind} metric {name} missing")
            metrics[name] = {"value": 0, "unit": unit}
            absent.append(name)
    return {"correct": bool(result["correct"]) and result["attempted"] >= 1,
            "attempted": int(result["attempted"]), "failed": int(result["failed"]),
            "metrics": metrics}, extra, absent


def show(workload, notes, final, extra, absent):
    print(f"== {workload}")
    for note in notes:
        print(note)
    attempted, failed = final["attempted"], final["failed"]
    print(f"  {'failed_ratio':<44} {failed / max(attempted, 1):>18.6g} ratio"
          f"  ({failed} of {attempted} operations)")
    for name, metric in final["metrics"].items():
        if name not in absent:
            print(f"  {name:<44} {metric['value']:>18.6g} {metric['unit']}")
    for name, metric in extra.items():
        print(f"  {name:<44} {metric['value']:>18.6g} {metric['unit']}  (undeclared)")
    if absent:
        print("  not exercised by this workload, reported as 0: " + ", ".join(absent))


def largest_layer(workload, metrics):
    layers, _ = ITERATION_LAYERS[workload]
    return max(layers, key=lambda name: metrics[name]["value"])


def run_one(driver, spec, workload, seed, seconds, trace, inject=None, quiet=False):
    notes, result = run_driver(driver, workload, seed, seconds, trace, inject)
    final, extra, absent = shape(spec, workload, result, trace)
    if not quiet:
        show(workload, notes, final, extra, absent)
    return final


def run_all(driver, spec, seed, seconds):
    ok = True
    for workload in [w["name"] for w in spec["workloads"]] + REFERENCE_WORKLOADS:
        for trace in (0, 1):
            final = run_one(driver, spec, workload, seed, seconds, trace)
            ok &= final["correct"]
            if not trace:
                continue
            metrics = final["metrics"]
            coverage = metrics["trace.coverage"]["value"]
            largest = largest_layer(workload, metrics)
            expected = ITERATION_LAYERS[workload][1]
            verdicts = [
                (coverage >= MIN_COVERAGE,
                 f"layer self times cover {coverage:.1%} of the traced iteration"),
                (largest == expected,
                 f"largest layer of the iteration is {largest} (expected {expected})"),
            ]
            for good, text in verdicts:
                print(f"  {'PASS' if good else 'FAIL'}: {text}")
                ok &= good
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def selftest(driver, spec, seed, seconds):
    """A fixed delay injected around one layer's call must grow that
    layer's self time by about the delay and leave the others alone."""
    workload, layer, delay_ms = "nren-edit", "compiler", 1000.0
    base = run_one(driver, spec, workload, seed, seconds, 1, quiet=True)["metrics"]
    slow = run_one(driver, spec, workload, seed, seconds, 1,
                   inject=f"{layer}={delay_ms:g}", quiet=True)["metrics"]
    ok = True
    for name in ITERATION_LAYERS[workload][0]:
        grew = slow[name]["value"] - base[name]["value"]
        target = name == f"{layer}.ms"
        good = (0.75 * delay_ms <= grew <= 1.25 * delay_ms) if target else \
            abs(grew) < 0.5 * delay_ms
        ok &= good
        print(f"  {'PASS' if good else 'FAIL'}: {name:<28} {grew:+10.1f} ms"
              f"{'  (delay injected here)' if target else ''}")
    print(f"attribution self-test ({delay_ms:g} ms around {layer} on {workload}): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] + REFERENCE_WORKLOADS
    if not args.selftest and args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload} (known: {', '.join(names)})")
    driver = build()
    if args.selftest:
        return selftest(driver, spec, args.seed, seconds)
    if args.workload == "all":
        return run_all(driver, spec, args.seed, seconds)
    final = run_one(driver, spec, args.workload, args.seed, seconds, args.trace)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
