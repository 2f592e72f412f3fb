"""E4 — Bonnerud pipelined ADC with digital noise cancellation (seed [2]).

ENOB vs per-stage gain error with and without the digital correction,
agreement with the independently-coded vectorized golden model, and
conversion throughput.

Besides the pytest-benchmark tests, this module exposes
:func:`run_once` — one parameterized conversion experiment returning a
metrics dict — so campaign drivers (`repro.campaign`, the Monte Carlo
mismatch/yield demo in ``examples/campaign_adc_yield.py``) reuse the
model setup instead of duplicating it.
"""

import numpy as np

from repro.analysis import coherent_tone_frequency, enob_of_tone
from repro.baselines import golden_pipeline_convert
from repro.lib import PipelinedAdc, as_generator

try:
    from conftest import print_table
except ImportError:  # imported as a library from outside benchmarks/
    def print_table(title, header, rows):
        print(f"\n== {title} ==")
        for row in [header] + rows:
            print("  ".join(str(cell) for cell in row))

FS = 1e6
N = 4096
N_STAGES = 7
BACKEND = 3


def stimulus(n: int = N):
    f = coherent_tone_frequency(FS, n, 17e3)
    t = np.arange(n) / FS
    return f, 0.95 * np.sin(2 * np.pi * f * t)


def run_once(params: dict) -> dict:
    """One Monte Carlo sample of the pipelined ADC (seed work [2]).

    Draws per-stage gain errors (capacitor mismatch) and comparator
    offsets from the run's random stream, converts a coherent test
    tone, and reports ENOB with (``enob_cal``) and without
    (``enob_raw``) the digital noise cancellation.

    Recognized params (all optional): ``seed`` (int or Generator),
    ``n_stages``, ``backend_bits``, ``mismatch_rms`` (relative cap
    mismatch → stage gain error sigma), ``offset_rms`` [V],
    ``noise_rms`` [V], ``n_samples``.
    """
    rng = as_generator(params.get("seed"))
    n_stages = int(params.get("n_stages", N_STAGES))
    backend_bits = int(params.get("backend_bits", BACKEND))
    mismatch_rms = float(params.get("mismatch_rms", 0.01))
    offset_rms = float(params.get("offset_rms", 0.02))
    noise_rms = float(params.get("noise_rms", 0.0))
    n_samples = int(params.get("n_samples", N))

    gain_errors = rng.normal(0.0, mismatch_rms, n_stages)
    offsets = rng.normal(0.0, offset_rms, n_stages)
    f, x = stimulus(n_samples)
    adc = PipelinedAdc(
        n_stages=n_stages,
        backend_bits=backend_bits,
        gain_errors=gain_errors.tolist(),
        comparator_offsets=offsets.tolist(),
        noise_rms=noise_rms,
        seed=rng,
    )
    raw = adc.convert_array(x, calibrated=False)
    cal = adc.convert_array(x, calibrated=True)
    enob_raw = float(enob_of_tone(raw, FS, tone_frequency=f))
    enob_cal = float(enob_of_tone(cal, FS, tone_frequency=f))
    return {
        "enob_raw": enob_raw,
        "enob_cal": enob_cal,
        "recovered": enob_cal - enob_raw,
    }


def test_e4_gain_error_sweep(benchmark):
    f, x = stimulus()
    table = {}

    def measure():
        for gain_error in (0.0, 0.005, 0.01, 0.02):
            adc = PipelinedAdc(n_stages=N_STAGES, backend_bits=BACKEND,
                               gain_errors=[gain_error] * N_STAGES)
            raw = adc.convert_array(x, calibrated=False)
            cal = adc.convert_array(x, calibrated=True)
            table[gain_error] = (
                enob_of_tone(raw, FS, tone_frequency=f),
                enob_of_tone(cal, FS, tone_frequency=f),
            )
        return table

    benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[f"{ge:.1%}", round(raw, 2), round(cal, 2),
             round(cal - raw, 2)]
            for ge, (raw, cal) in table.items()]
    print_table(
        "E4: pipelined ADC ENOB vs stage gain error "
        f"({N_STAGES}x1.5b + {BACKEND}b backend)",
        ["gain error", "ENOB raw", "ENOB calibrated", "recovered"],
        rows,
    )
    raw_1pct, cal_1pct = table[0.01]
    # Bonnerud's claim: digital correction recovers the lost resolution.
    assert cal_1pct - raw_1pct >= 2.0
    assert cal_1pct > 9.0
    # Without analog error both reconstructions meet nominal-1.5 bits.
    assert table[0.0][0] > N_STAGES + BACKEND - 1.5


def test_e4_matches_golden_model(benchmark):
    """Framework vs vectorized golden ('comparable accuracy to MATLAB')."""
    _f, x = stimulus()
    errors = np.random.default_rng(4).uniform(-0.02, 0.02, N_STAGES)
    adc = PipelinedAdc(n_stages=N_STAGES, backend_bits=BACKEND,
                       gain_errors=errors.tolist())

    framework = benchmark(lambda: adc.convert_array(x, calibrated=True))
    golden = golden_pipeline_convert(
        x, N_STAGES, BACKEND, gain_errors=errors.tolist(),
        calibrated=True,
    )
    deviation = float(np.max(np.abs(framework - golden)))
    print_table("E4: framework vs golden", ["metric", "value"],
                [["max |diff|", f"{deviation:.2e}"],
                 ["samples", N]])
    assert deviation < 1e-12


def test_e4_throughput_golden(benchmark):
    """Vectorized golden model conversion rate (the baseline's speed)."""
    _f, x = stimulus()
    benchmark(lambda: golden_pipeline_convert(x, N_STAGES, BACKEND))


if __name__ == "__main__":
    metrics = run_once({"seed": 1, "n_samples": 1024})
    print_table("E4 single Monte Carlo sample", ["metric", "value"],
                [[k, round(v, 3)] for k, v in metrics.items()])
