"""Block-execution perf harness: scalar vs compiled/batched TDF runs.

For each model in :mod:`models` the harness runs the same simulation
twice — once with ``tdf_block=False`` (the scalar reference engine) and
once with block mode on — checks the recorded output streams are
bit-identical, and reports samples/sec plus the block/scalar speedup.
A third short run with telemetry (``Simulator(observe="metrics")``)
attributes wall-clock time to individual modules.

Usage::

    python benchmarks/perf/run_perf.py                # full run
    python benchmarks/perf/run_perf.py --quick        # CI-sized run
    python benchmarks/perf/run_perf.py --baseline \
        --output BENCH_PR4.json                       # new baseline
    python benchmarks/perf/run_perf.py --quick \
        --check-regression BENCH_PR4.json             # gate CI

The regression gate compares *speedups* (block vs scalar on the same
machine and run size), not absolute samples/sec, so a committed
baseline stays meaningful across hardware: the run fails when any
model's speedup drops more than ``--threshold`` (default 20%) below
the baseline, or when any equivalence check fails.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

from models import MODELS, ladder_network, sink_streams  # noqa: E402
from repro.core import SimTime, Simulator  # noqa: E402
from repro.ct.linear import make_stepper  # noqa: E402
from repro.eln import Capacitor, Isource, Network, Resistor  # noqa: E402

#: batching configuration for the block runs: large batches amortize
#: the numpy dispatch, and the compaction interval must not fragment
#: them (batches never cross a compaction boundary).
BLOCK_BATCH = 512
BLOCK_COMPACT = 4096


def run_model(builder, duration_us: float, *, block: bool,
              profile: bool = False):
    """One timed simulation (``profile`` installs a metrics-only
    telemetry hub, which times every module).

    Returns ``(wall_s, cpu_s, times, samples, sim)`` — wall clock for
    human-facing throughput, process CPU time for the regression gate
    (insensitive to other load on the machine).
    """
    top = builder()
    sim = Simulator(
        top,
        tdf_block=block,
        tdf_batch=BLOCK_BATCH if block else 1,
        tdf_compact_every=BLOCK_COMPACT,
        observe="metrics" if profile else None,
    )
    sim.elaborate()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    sim.run(SimTime(duration_us, "us"))
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    times, samples = sink_streams(top)
    return wall, cpu, times, samples, sim


def measure(name: str, builder, duration_us: float,
            repeats: int = 2) -> dict:
    # Best-of-N on both engines damps scheduler noise so the CI
    # regression gate is judging the code, not the machine load; the
    # gated speedup uses CPU time for the same reason.
    scalar_w = scalar_c = np.inf
    block_w = block_c = np.inf
    t_ref = x_ref = t_blk = x_blk = None
    for _ in range(repeats):
        wall, cpu, t_ref, x_ref, _ = run_model(builder, duration_us,
                                               block=False)
        scalar_w, scalar_c = min(scalar_w, wall), min(scalar_c, cpu)
        wall, cpu, t_blk, x_blk, _ = run_model(builder, duration_us,
                                               block=True)
        block_w, block_c = min(block_w, wall), min(block_c, cpu)
    equivalent = (np.array_equal(t_ref, t_blk)
                  and np.array_equal(x_ref, x_blk))
    samples = int(len(x_ref))
    return {
        "samples": samples,
        "scalar_seconds": scalar_w,
        "block_seconds": block_w,
        "scalar_cpu_seconds": scalar_c,
        "block_cpu_seconds": block_c,
        "scalar_samples_per_sec": samples / scalar_w,
        "block_samples_per_sec": samples / block_w,
        "speedup": scalar_c / block_c,
        "equivalent": bool(equivalent),
    }


#: metric key prefix of the per-module wall time
MODULE_SECONDS = "tdf.module_seconds[module="


def profile_model(builder, duration_us: float, top_n: int = 8) -> dict:
    """Per-module seconds from a short block run with telemetry."""
    _wall, _cpu, _t, _x, sim = run_model(builder, duration_us,
                                         block=True, profile=True)
    seconds = {key[len(MODULE_SECONDS):-1]: value
               for key, value in sim.telemetry.metrics.scalars().items()
               if key.startswith(MODULE_SECONDS)}
    ranked = sorted(seconds.items(), key=lambda kv: -kv[1])[:top_n]
    return {module: round(secs, 6) for module, secs in ranked}


#: ladder sizes for the dense-vs-sparse stepper microbenchmark (MNA
#: unknowns are nodes + 1 for the source branch current).
LADDER_SIZES_QUICK = [32, 96, 192, 384]
LADDER_SIZES_FULL = [32, 96, 192, 384, 768]


def _ladder_dae(nodes: int, sparse: bool):
    net = ladder_network("ladder", nodes)
    # Drive the source so the equivalence check sees nonzero data.
    net.components[0].waveform = lambda t: np.sin(2e4 * np.pi * t)
    return net.assemble(sparse=sparse)[0]


def _ode_ladder_dae(nodes: int):
    """An RC ladder driven by a current source, with a capacitor on
    every node: an invertible-``C`` pure ODE the expm stepper accepts."""
    net = Network("ode_ladder")
    net.add(Isource("Iin", "n1", "0",
                    current=lambda t: 1e-3 * np.sin(2e4 * np.pi * t)))
    net.add(Capacitor("C0", "n1", "0", 1e-9))
    net.add(Resistor("R0", "n1", "0", 1e3))
    for k in range(1, nodes):
        net.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", 1e3))
        net.add(Capacitor(f"C{k}", f"n{k + 1}", "0", 1e-9))
    return net.assemble()[0]


def _source_blocks(dae, times: np.ndarray, h: float):
    steps = len(times)
    b_next = np.empty((steps, dae.n))
    b_now = np.empty((steps, dae.n))
    for k, t in enumerate(times):
        b_next[k] = dae.source(t)
        b_now[k] = dae.source(t - h)
    return b_next, b_now


def _time_window(stepper, x0, times, h, b_next, b_now,
                 repeats: int = 3):
    """Best-of-N CPU seconds for one ``step_window`` call (the factor
    cache is warmed by the first repeat)."""
    best = np.inf
    states = None
    for _ in range(repeats):
        cpu0 = time.process_time()
        states = stepper.step_window(x0, h, b_next, b_now, times)
        best = min(best, time.process_time() - cpu0)
    return best, states


def solver_suite(quick: bool) -> dict:
    """Stepper-level microbenchmarks for the solver variants.

    * dense vs sparse trapezoidal stepping across ladder sizes —
      per-step CPU time, bit-level agreement, and the size where the
      sparse path starts winning;
    * the exact-expm LTI stepper vs dense trapezoidal on a pure ODE
      ladder — per-step CPU time plus an accuracy flag against an
      oversampled trapezoidal reference.
    """
    steps = 1024 if quick else 4096
    h = 1e-6
    times = (1.0 + np.arange(steps)) * h

    ladder = []
    crossover = None
    for nodes in (LADDER_SIZES_QUICK if quick else LADDER_SIZES_FULL):
        entry = {"nodes": nodes}
        states = {}
        for variant in ("dense", "sparse"):
            dae = _ladder_dae(nodes, sparse=(variant == "sparse"))
            b_next, b_now = _source_blocks(dae, times, h)
            x0 = np.zeros(dae.n)
            stepper = make_stepper(dae, h, "trapezoidal", variant)
            cpu, states[variant] = _time_window(
                stepper, x0, times, h, b_next, b_now)
            entry[f"{variant}_per_step_us"] = cpu / steps * 1e6
        diff = float(np.max(np.abs(states["dense"] - states["sparse"])))
        entry["max_abs_diff"] = diff
        entry["equivalent"] = bool(diff < 1e-8)
        entry["sparse_faster"] = bool(entry["sparse_per_step_us"]
                                      < entry["dense_per_step_us"])
        if crossover is None and entry["sparse_faster"]:
            crossover = nodes
        ladder.append(entry)
        print(f"[perf]   ladder n={nodes}: dense "
              f"{entry['dense_per_step_us']:.2f} us/step, sparse "
              f"{entry['sparse_per_step_us']:.2f} us/step, "
              f"equivalent={entry['equivalent']}", flush=True)

    expm_nodes = 64
    dae = _ode_ladder_dae(expm_nodes)
    b_next, b_now = _source_blocks(dae, times, h)
    x0 = np.zeros(dae.n)
    expm_cpu, expm_states = _time_window(
        make_stepper(dae, h, variant="expm"),
        x0, times, h, b_next, b_now)
    trap_cpu, _ = _time_window(
        make_stepper(dae, h, variant="dense"),
        x0, times, h, b_next, b_now)
    # Accuracy reference: 32x-oversampled trapezoidal driven by the
    # SAME first-order-hold input the expm stepper integrates (expm is
    # exact for piecewise-linear sources, so any gap beyond the
    # reference's own truncation error is a stepper bug).
    over = 32
    h_ref = h / over
    t_ref = (1.0 + np.arange(steps * over)) * h_ref
    ramp_next = (np.arange(over) + 1.0) / over
    ramp_now = np.arange(over) / over
    b_next_ref = np.empty((steps * over, dae.n))
    b_now_ref = np.empty_like(b_next_ref)
    for k in range(steps):
        delta = b_next[k] - b_now[k]
        b_next_ref[k * over:(k + 1) * over] = \
            b_now[k] + np.outer(ramp_next, delta)
        b_now_ref[k * over:(k + 1) * over] = \
            b_now[k] + np.outer(ramp_now, delta)
    ref_states = make_stepper(dae, h_ref, variant="dense").step_window(
        x0, h_ref, b_next_ref, b_now_ref, t_ref)
    err = float(np.max(np.abs(expm_states[-1] - ref_states[-1])))
    scale = float(np.max(np.abs(ref_states[-1]))) or 1.0
    expm = {
        "nodes": expm_nodes,
        "expm_per_step_us": expm_cpu / steps * 1e6,
        "dense_per_step_us": trap_cpu / steps * 1e6,
        "max_rel_err": err / scale,
        "accurate": bool(err / scale < 1e-6),
    }
    print(f"[perf]   expm n={expm_nodes}: expm "
          f"{expm['expm_per_step_us']:.2f} us/step, dense "
          f"{expm['dense_per_step_us']:.2f} us/step, "
          f"accurate={expm['accurate']}", flush=True)
    return {"ladder": ladder, "crossover_nodes": crossover,
            "expm": expm}


def run_suite(quick: bool) -> dict:
    report = {
        "schema": "repro-perf/2",
        "mode": "quick" if quick else "full",
        "tdf_batch": BLOCK_BATCH,
        "benchmarks": {},
        "profile": {},
    }
    for name, (builder, full_us, quick_us) in MODELS.items():
        duration = quick_us if quick else full_us
        print(f"[perf] {name}: {duration:.0f} us simulated ...",
              flush=True)
        result = measure(name, builder, duration)
        report["benchmarks"][name] = result
        print(f"[perf]   scalar {result['scalar_samples_per_sec']:.0f} "
              f"samples/s, block {result['block_samples_per_sec']:.0f} "
              f"samples/s, speedup {result['speedup']:.2f}x, "
              f"equivalent={result['equivalent']}", flush=True)
        report["profile"][name] = profile_model(
            builder, min(duration, quick_us)
        )
    print("[perf] solver variants: dense / sparse / expm ...",
          flush=True)
    report["solver"] = solver_suite(quick)
    return report


def solver_failures(report: dict) -> list[str]:
    """Correctness failures in the solver-variant section (these are
    deterministic flags, gated even without a baseline)."""
    failures = []
    solver = report.get("solver", {})
    for entry in solver.get("ladder", []):
        if not entry["equivalent"]:
            failures.append(
                f"solver ladder n={entry['nodes']}: sparse states "
                f"diverge from dense (max abs diff "
                f"{entry['max_abs_diff']:.3e})"
            )
    expm = solver.get("expm")
    if expm is not None and not expm["accurate"]:
        failures.append(
            f"solver expm: relative error {expm['max_rel_err']:.3e} "
            "against the oversampled trapezoidal reference"
        )
    return failures


def check_regression(report: dict, baseline_path: str,
                     threshold: float) -> list[str]:
    """Failure messages (empty = pass).

    Speedups are only compared against the baseline section recorded
    in the *same* run mode — quick runs amortize elaboration and
    warm-up less, so their speedups sit systematically below full-run
    numbers.
    """
    failures = []
    for name, result in report["benchmarks"].items():
        if not result["equivalent"]:
            failures.append(
                f"{name}: block output diverges from scalar reference"
            )
    failures.extend(solver_failures(report))
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except OSError:
        failures.append(f"baseline {baseline_path!r} not readable")
        return failures
    section = baseline.get("runs", {}).get(report["mode"])
    if section is None:
        failures.append(
            f"baseline {baseline_path!r} has no "
            f"{report['mode']!r}-mode section"
        )
        return failures
    for name, result in report["benchmarks"].items():
        base = section.get("benchmarks", {}).get(name)
        if base is None:
            continue
        floor = base["speedup"] * (1.0 - threshold)
        if result["speedup"] < floor:
            failures.append(
                f"{name}: speedup {result['speedup']:.2f}x fell more "
                f"than {threshold:.0%} below baseline "
                f"{base['speedup']:.2f}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized runs (~10x shorter)")
    parser.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--baseline", action="store_true",
                        help="with --output: run BOTH modes and write "
                        "a two-section baseline usable by "
                        "--check-regression in either mode")
    parser.add_argument("--check-regression", metavar="BASELINE",
                        default=None,
                        help="compare against a committed report; "
                        "exit non-zero on equivalence failure or "
                        "speedup regression")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional speedup regression "
                        "(default 0.20)")
    args = parser.parse_args(argv)

    if args.baseline:
        if not args.output:
            parser.error("--baseline requires --output")
        payload = {
            "schema": "repro-perf/2",
            "tdf_batch": BLOCK_BATCH,
            "runs": {
                "full": run_suite(False),
                "quick": run_suite(True),
            },
        }
        report = payload["runs"]["full"]
    else:
        report = run_suite(args.quick)
        payload = report

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[perf] report written to {args.output}")

    status = 0
    if args.check_regression:
        failures = check_regression(report, args.check_regression,
                                    args.threshold)
        for message in failures:
            print(f"[perf] FAIL: {message}", file=sys.stderr)
        status = 1 if failures else 0
    else:
        for name, result in report["benchmarks"].items():
            if not result["equivalent"]:
                print(f"[perf] FAIL: {name}: block output diverges "
                      "from scalar reference", file=sys.stderr)
                status = 1
        for message in solver_failures(report):
            print(f"[perf] FAIL: {message}", file=sys.stderr)
            status = 1
    print(json.dumps(
        {name: round(r["speedup"], 2)
         for name, r in report["benchmarks"].items()},
        indent=None))
    return status


if __name__ == "__main__":
    sys.exit(main())
