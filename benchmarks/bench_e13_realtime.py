"""E13 — Real-time capability.

The requirement that "models must execute in time steps that are bounded
by some maximum execution time" for hardware-in-the-loop prototypes:
wall-clock per model step of HIL-style plant models (DC motor, power
stage) against their real-time budget, i.e. the real-time factor.
"""

import time

import numpy as np

from conftest import print_table
from repro.ct import LinearTransientSolver
from repro.eln import Network, Vsource
from repro.multidomain import DcMotor, Inertia, RotationalDamper
from repro.power import HalfBridgeDriver, RLLoad

STEP_SECONDS = 1e-3  # a typical 1 kHz HIL step (automotive speed loop)


def motor_solver():
    net = Network("plant")
    net.add(Vsource("Vdrive", "vin", "0", 12.0))
    DcMotor("mot", net, "vin", "0", "w", kt=0.05, r_a=1.0, l_a=1e-3)
    net.add(Inertia("J", "w", 5e-4))
    net.add(RotationalDamper("b", "w", "0", 1e-4))
    dae, index = net.assemble()
    solver = LinearTransientSolver(dae)
    solver.initialize(0.0, x0=np.zeros(index.size))
    return solver


def test_e13_motor_step_budget(benchmark):
    solver = motor_solver()
    state = {"t": 0.0}

    def one_step():
        state["t"] += STEP_SECONDS
        solver.advance_to(state["t"])

    benchmark(one_step)
    # Direct measurement: warm up (factorization happens once), then
    # 1000 steps.  The 99th percentile is the model's bound; the raw
    # max additionally absorbs OS scheduler noise and is informational.
    solver = motor_solver()
    solver.advance_to(STEP_SECONDS)
    durations = []
    t = STEP_SECONDS
    for _ in range(1000):
        t += STEP_SECONDS
        start = time.perf_counter()
        solver.advance_to(t)
        durations.append(time.perf_counter() - start)
    p99 = float(np.percentile(durations, 99))
    mean = float(np.mean(durations))
    print_table(
        "E13: DC-motor plant, 1 ms HIL step",
        ["metric", "value"],
        [["mean step wall [us]", round(mean * 1e6, 1)],
         ["p99 step wall [us]", round(p99 * 1e6, 1)],
         ["max step wall [us]",
          round(max(durations) * 1e6, 1)],
         ["real-time factor (mean)",
          round(STEP_SECONDS / mean, 1)],
         ["bounded (p99 < budget)", p99 < STEP_SECONDS]],
    )
    # Shape: the linear plant runs faster than real time with a bounded
    # per-step cost.
    assert mean < STEP_SECONDS
    assert p99 < STEP_SECONDS


def test_e13_power_stage_step_budget(benchmark):
    driver = HalfBridgeDriver(RLLoad(2.0, 5e-4), v_supply=12.0,
                              pwm_frequency=10e3, duty=0.5)
    solver = driver.solver
    # Warm the transition cache (deterministic per-step cost after).
    half = 0.5 / 10e3
    solver.advance(np.zeros(1), "high", half)
    solver.advance(np.zeros(1), "low", half)
    state = {"x": np.zeros(1), "key": "high"}

    def one_segment():
        state["x"] = solver.advance(state["x"], state["key"], half)
        state["key"] = "low" if state["key"] == "high" else "high"

    benchmark(one_segment)
    durations = []
    x = np.zeros(1)
    key = "high"
    for _ in range(2000):
        start = time.perf_counter()
        x = solver.advance(x, key, half)
        durations.append(time.perf_counter() - start)
        key = "low" if key == "high" else "high"
    p99 = float(np.percentile(durations, 99))
    mean = float(np.mean(durations))
    budget = half  # one PWM half-period of real time
    print_table(
        "E13: PWL power stage, 50 us PWM segment",
        ["metric", "value"],
        [["mean segment wall [us]", round(mean * 1e6, 2)],
         ["p99 segment wall [us]", round(p99 * 1e6, 2)],
         ["real-time factor (mean)", round(budget / mean, 1)],
         ["bounded (p99 < budget)", p99 < budget]],
    )
    assert mean < budget
    assert p99 < budget
