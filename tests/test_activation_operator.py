"""One operator per CT activation.

A linear section driven only by TDF input holders and constants reads
the sources of one activation's k internal steps from its input vector
``u``: each interpolating holder's previous sample, every holder's
current one, and 1 for the constants.  Dense and expm sections take
the k steps as one map ``x' = P x + Q u``; sparse sections solve each
step with its source vector ``S_j u``.  These tests hold that operator
against the per-substep stepper loop it replaces, its window form
against the per-activation form byte for byte, and its cache against a
switch toggle's re-stamp.
"""

import numpy as np
import pytest

from repro.core import FEMTO, Clock, Module, SimTime, Simulator
from repro.ct import LinearDae, LinearTransientSolver
from repro.ct.linear import _CachedStepper, make_stepper
from repro.eln import Capacitor, Network, Resistor, Switch, Vsource
from repro.lib import SineSource, TdfSink
from repro.lsf import LsfAdd, LsfLtfNd, LsfNetwork, LsfSource
from repro.sync import ElnTdfModule, InputHolder
from repro.tdf import TdfSignal

#: activations per run, and their interval (1 us, tick-exact)
ACTIVATIONS = 200
INTERVAL = 10**9 * FEMTO


def _row_source(n, rows):
    """A source with the ELN row layout over ``rows``."""
    def source(t):
        b = np.zeros(n)
        for row, waveform, scale in rows:
            b[row] += scale * (waveform(t) if callable(waveform)
                               else waveform)
        return b

    source.rows = tuple(rows)
    return source


def _matrix_section(n, invertible_c, interpolate, rng):
    """A random stable section of ``n`` unknowns: two holders (one in
    two rows) and a constant row; singular ``C`` (algebraic rows) unless
    ``invertible_c``."""
    holders = [InputHolder(0.0, interpolate) for _ in range(2)]
    spread = rng.normal(size=(n, n))
    G = spread @ spread.T / n + np.eye(n)
    c = rng.uniform(0.5, 2.0, n) * 1e-6
    if not invertible_c and n > 2:
        c[rng.permutation(n)[:n // 3]] = 0.0
    rows = [(0, holders[0], 1.0), (n - 1, holders[1], -0.5),
            (n // 2, holders[0], 2.0), (min(1, n - 1), 0.25, 3.0)]
    return LinearDae(np.diag(c), G, _row_source(n, rows)), holders


def _lsf_section(n, interpolate, rng):
    """A random LSF section: one holder into a 2nd-order low-pass (4
    unknowns), or two holders and a constant summed into three
    cascaded ones (13 unknowns)."""
    lsf = LsfNetwork()

    def lowpass(name, inp, out):
        w = 2 * np.pi * rng.uniform(1e5, 3e5)
        zeta = rng.uniform(0.4, 1.0)
        lsf.add(LsfLtfNd(name, inp, out, num=[1.0],
                         den=[1.0, 2 * zeta / w, 1 / w**2]))

    holders = [InputHolder(0.0, interpolate)]
    u = lsf.signal("u")
    lsf.add(LsfSource("u", u, holders[0]))
    if n == 4:
        lowpass("lp", u, lsf.signal("y"))
    else:
        holders.append(InputHolder(0.0, interpolate))
        v, k, total = lsf.signal("v"), lsf.signal("k"), lsf.signal("s")
        lsf.add(LsfSource("v", v, holders[1]))
        lsf.add(LsfSource("k", k, 0.5))
        lsf.add(LsfAdd("sum", [u, v, k], total, weights=[1.0, -0.5, 2.0]))
        inp = total
        for stage in range(3):
            out = lsf.signal(f"y{stage}")
            lowpass(f"lp{stage}", inp, out)
            inp = out
    dae, _index = lsf.assemble()
    assert dae.n == n
    return dae, holders


def _section(kind, n, interpolate, rng):
    if kind == "lsf":
        return _lsf_section(n, interpolate, rng)
    return _matrix_section(n, kind == "expm", interpolate, rng)


CASES = [
    (kind, n, method, substeps, interpolate)
    for kind, sizes in (("dense", (1, 3, 4, 13)), ("sparse", (1, 3, 4, 13)),
                        ("expm", (1, 3, 4, 13)), ("lsf", (4, 13)))
    for n in sizes
    for method in (("trapezoidal",) if kind == "expm"
                   else ("trapezoidal", "backward_euler"))
    for substeps in (1, 2, 3, 4)
    for interpolate in (True, False)
]


def no_substep(self, x, t):
    raise AssertionError(f"per-substep step at {t}")


def _check_operator(monkeypatch, dae, holders, variant, method, substeps,
                    rng):
    """Step ``dae`` through ``ACTIVATIONS`` activations of random
    samples: the operator agrees with ``substeps`` stepper steps per
    activation to 1e-12 of the run's peak, and its window form equals
    its per-activation form byte for byte."""
    n = dae.n
    times = np.arange(ACTIVATIONS + 1) * INTERVAL
    samples = rng.uniform(-1.0, 1.0, (ACTIVATIONS + 1, len(holders)))
    x0 = rng.uniform(-1.0, 1.0, n)
    h = INTERVAL / substeps

    def reset():
        for holder, value in zip(holders, samples[0]):
            holder.reset(value)

    # the reference: the stepper's per-substep loop
    reset()
    stepper = make_stepper(dae, h, method, variant)
    reference = np.empty((ACTIVATIONS, n))
    x = x0
    for a in range(1, ACTIVATIONS + 1):
        for holder, value in zip(holders, samples[a]):
            holder.push(value, times[a - 1], times[a])
        for j in range(substeps):
            x = stepper.step(x, times[a - 1] + j * h)
        reference[a - 1] = x

    def solver():
        reset()
        made = LinearTransientSolver(dae, h_internal=h, method=method,
                                     variant=variant)
        assert made.hold_inputs(holders)
        made.initialize(0.0, x0)
        return made

    monkeypatch.setattr(_CachedStepper, "step", no_substep)
    scalar = solver()
    each = np.empty((ACTIVATIONS, n))
    for a in range(1, ACTIVATIONS + 1):
        for holder, value in zip(holders, samples[a]):
            holder.push(value, scalar.time, times[a])
        each[a - 1] = scalar.advance_to(times[a])
    assert scalar.step_count == ACTIVATIONS * substeps
    np.testing.assert_allclose(each, reference, rtol=0,
                               atol=1e-12 * np.abs(reference).max())

    block = solver()
    windows = []
    for start, stop in ((1, 2), (2, 35), (35, 36), (36, ACTIVATIONS + 1)):
        columns = list(samples[start:stop].T)
        t_prev = block.time if stop - start == 1 else times[stop - 2]
        window = block.held_window(times[start:stop], columns)
        assert len(window) == (stop - start) * substeps
        windows.append(block.advance_window(window))
        for holder, column in zip(holders, columns):
            holder.push_all(column, t_prev, times[stop - 1])
    assert np.concatenate(windows).tobytes() == each.tobytes()
    assert block.step_count == scalar.step_count


@pytest.mark.parametrize("kind,n,method,substeps,interpolate", CASES)
def test_operator_matches_the_substep_loop(monkeypatch, kind, n, method,
                                           substeps, interpolate):
    """Each activation's operator agrees with ``substeps`` stepper steps
    to 1e-12 of the run's peak, and its window form equals its
    per-activation form byte for byte."""
    rng = np.random.default_rng([n, substeps, len(kind), len(method)])
    dae, holders = _section(kind, n, interpolate, rng)
    variant = kind if kind in ("expm", "sparse") else "dense"
    _check_operator(monkeypatch, dae, holders, variant, method, substeps,
                    rng)


@pytest.mark.parametrize("variant", ["dense", "sparse", "expm"])
@pytest.mark.parametrize("n", [3, 13])
def test_section_without_source_rows(monkeypatch, variant, n):
    """A section no source row drives has an empty input vector (width
    0): its activations still step through the operator, decaying
    from their initial state as the per-substep loop does."""
    rng = np.random.default_rng([n, len(variant)])
    dae, _holders = _matrix_section(n, variant == "expm", True, rng)
    empty = LinearDae(dae.C, dae.G, _row_source(n, []))
    _check_operator(monkeypatch, empty, [], variant, "trapezoidal", 3, rng)


def test_waveform_sections_keep_the_substep_loop():
    """The operator covers sections driven by holders and constants
    only: a source row with a time waveform steps per substep as
    before, whatever the stepper."""
    rng = np.random.default_rng(5)
    dae, holders = _matrix_section(4, False, True, rng)
    rows = dae.source.rows + ((2, np.cos, 1.0),)
    waveform = LinearDae(dae.C, dae.G, _row_source(4, rows))
    for variant in ("dense", "sparse"):
        solver = LinearTransientSolver(waveform, variant=variant)
        assert not solver.hold_inputs(holders)
        assert solver.held_window(np.array([INTERVAL]),
                                  [[1.0], [2.0]]) is None


class SwitchedRc(Module):
    """A DC source into an RC section whose output node a clock shorts
    to ground from 1 ms on, every 4 ms for 1 ms, stepped by the
    ``variant`` stepper."""

    def __init__(self, variant="dense"):
        super().__init__("top")
        self.s_in, self.s_out = TdfSignal("s_in"), TdfSignal("s_out")
        self.clk = Clock("clk", period=SimTime(4, "ms"), duty_cycle=0.25,
                         parent=self, start_time=SimTime(1, "ms"))
        self.src = SineSource("src", 0.0, amplitude=0.0, offset=1.0,
                              parent=self, timestep=SimTime(20, "us"))
        net = Network("rc")
        net.add(Vsource("Vin", "n1", "0"))
        net.add(Resistor("R1", "n1", "n2", 1e3))
        net.add(Capacitor("C1", "n2", "0", 1e-7))
        net.add(Switch("S1", "n2", "0", closed=False, r_on=1.0,
                       r_off=1e12))
        self.rc = ElnTdfModule("rc", net, parent=self, oversample=4,
                               solver_variant=variant)
        self.sink = TdfSink("sink", parent=self)
        self.src.out(self.s_in)
        self.rc.drive_voltage("Vin")(self.s_in)
        self.rc.sample_voltage("n2")(self.s_out)
        self.rc.bind_switch("S1", self.clk.signal)
        self.sink.inp(self.s_out)


def _check_switch_toggle(monkeypatch, variant):
    """A toggle re-stamps the network: the operators built for the old
    matrices go with its factors, so the output follows the
    per-substep reference through both toggles."""
    def run():
        top = SwitchedRc(variant)
        Simulator(top).run(SimTime(4, "ms"))
        assert top.rc.rebuild_count == 2  # close, then reopen
        return top

    monkeypatch.setattr(LinearTransientSolver, "hold_inputs",
                        lambda self, holders: False)
    reference = run()
    monkeypatch.undo()
    monkeypatch.setattr(_CachedStepper, "step", no_substep)
    got = run()
    samples = np.asarray(got.sink.samples)
    expected = np.asarray(reference.sink.samples)
    np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-12)
    # charged before the switch closes, collapsed while it is closed,
    # recharged after it reopens
    times = np.asarray(got.sink.times)
    assert samples[np.searchsorted(times, 0.9e-3)] > 0.99
    assert abs(samples[np.searchsorted(times, 1.9e-3)]) < 0.01
    assert samples[-1] > 0.99


def test_switch_toggle_drops_the_operator(monkeypatch):
    """The dense propagators folded into the operator go with a
    toggle's re-stamp."""
    _check_switch_toggle(monkeypatch, "dense")


def test_sparse_switch_toggle_drops_the_source_matrices(monkeypatch):
    """A sparse section's operator, its per-step source matrices kept
    beside the SuperLU factors, goes with a toggle's re-stamp too."""
    _check_switch_toggle(monkeypatch, "sparse")
