"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold over randomized inputs: solver agreement with
closed forms, stamping passivity, schedule admissibility, numerical
continuity of device models, and parser/builder equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ct import LinearDae, newton
from repro.ct.nonlinear import dlimexp, limexp
from repro.eln import Capacitor, Network, Resistor, Vsource, dc_analysis
from repro.frontends import parse_netlist
from repro.power import PwlConfig, PwlSolver


@given(
    tau=st.floats(min_value=1e-6, max_value=1.0),
    u=st.floats(min_value=-10.0, max_value=10.0),
    x0=st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=50, deadline=None)
def test_trapezoidal_matches_exponential_decay(tau, u, x0):
    """TRAP on x' = (u - x)/tau agrees with the closed form to O(h^2)."""
    dae = LinearDae(
        C=np.array([[tau]]), G=np.array([[1.0]]),
        source=lambda t: np.array([u]),
    )
    h = tau / 50
    times, states = dae.transient(tau, h, x0=np.array([x0]))
    exact = u + (x0 - u) * np.exp(-times / tau)
    scale = max(abs(u), abs(x0), 1.0)
    assert np.max(np.abs(states[:, 0] - exact)) < 1e-3 * scale


@given(
    a=st.floats(min_value=-50.0, max_value=-0.01),
    b=st.floats(min_value=-10.0, max_value=10.0),
    h=st.floats(min_value=1e-4, max_value=0.5),
)
@settings(max_examples=50, deadline=None)
def test_pwl_solver_is_exact(a, b, h):
    """PWL transition equals the analytic solution of x' = a x + b."""
    solver = PwlSolver({"k": PwlConfig([[a]], [b])})
    x0 = 1.0
    result = solver.advance(np.array([x0]), "k", h)
    x_inf = -b / a
    exact = x_inf + (x0 - x_inf) * np.exp(a * h)
    assert result[0] == pytest.approx(exact, rel=1e-9, abs=1e-12)


@given(st.lists(st.floats(min_value=1.0, max_value=1e6),
                min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_series_resistor_chain_dc(resistances):
    """Current through a series chain equals V / sum(R); the netlist
    parser builds the identical network."""
    v_in = 10.0
    lines = [f"V1 n0 0 DC {v_in}"]
    net = Network()
    net.add(Vsource("V1", "n0", "0", v_in))
    for k, r in enumerate(resistances):
        net.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", r))
        lines.append(f"R{k} n{k} n{k+1} {r!r}")
    net.add(Resistor("Rend", f"n{len(resistances)}", "0", 1.0))
    lines.append(f"Rend n{len(resistances)} 0 1")
    total = sum(resistances) + 1.0
    dc = dc_analysis(net)
    assert dc.current("V1") == pytest.approx(-v_in / total, rel=1e-9)
    parsed = parse_netlist("\n".join(lines))
    dc2 = dc_analysis(parsed)
    assert dc2.current("V1") == pytest.approx(dc.current("V1"), rel=1e-12)


@given(
    values=st.lists(
        st.tuples(st.sampled_from("RC"),
                  st.floats(min_value=1e-2, max_value=1e2)),
        min_size=1, max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_rc_network_eigenvalues_stable(values):
    """Any grounded R/C ladder is passive: the state matrix of the
    assembled DAE has no right-half-plane generalized eigenvalues."""
    net = Network()
    net.add(Resistor("Ranchor", "n0", "0", 1.0))
    net.add(Capacitor("Canchor", "n0", "0", 1e-6))
    for k, (kind, value) in enumerate(values):
        a, b = f"n{k}", f"n{k + 1}"
        if kind == "R":
            net.add(Resistor(f"R{k}", a, b, value))
            net.add(Capacitor(f"Cg{k}", b, "0", 1e-6))
        else:
            net.add(Capacitor(f"C{k}", a, b, value * 1e-6))
            net.add(Resistor(f"Rg{k}", b, "0", 1.0))
    dae, _index = net.assemble()
    eigenvalues = [ev for ev in
                   np.linalg.eigvals(np.linalg.solve(
                       dae.C + 1e-12 * np.eye(dae.n), -dae.G))
                   if np.isfinite(ev)]
    assert all(ev.real < 1e6 for ev in eigenvalues)


@given(st.floats(min_value=-200.0, max_value=200.0))
@settings(max_examples=200, deadline=None)
def test_limexp_continuity_and_monotonicity(x):
    """limexp is finite, positive, monotone, with matching derivative."""
    y = limexp(x)
    assert np.isfinite(y) and y > 0
    eps = 1e-6 * max(abs(x), 1.0)
    assert limexp(x + eps) >= y
    numeric = (limexp(x + eps) - limexp(x - eps)) / (2 * eps)
    assert numeric == pytest.approx(dlimexp(x), rel=1e-3)


@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_newton_solves_linear_systems_in_one_iteration(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    x, iterations = newton(
        lambda v: A @ v - b,
        lambda v: A,
        np.zeros(n),
    )
    np.testing.assert_allclose(A @ x, b, atol=1e-7)
    assert iterations <= 3


@given(
    r=st.floats(min_value=10.0, max_value=1e5),
    c=st.floats(min_value=1e-10, max_value=1e-5),
    frequency=st.floats(min_value=1.0, max_value=1e7),
)
@settings(max_examples=60, deadline=None)
def test_ac_transient_consistency(r, c, frequency):
    """|H| from AC analysis equals the analytic RC response everywhere."""
    dae = LinearDae(
        C=np.array([[c]]), G=np.array([[1 / r]]),
        source=lambda t: np.array([1.0 / r]),
    )
    h = dae.ac(np.array([frequency]))[0, 0]
    expected = 1 / (1 + 2j * np.pi * frequency * r * c)
    assert abs(h - expected) < 1e-9 * abs(expected) + 1e-15


@given(st.integers(min_value=2, max_value=64),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_cic_preserves_dc(factor, order):
    from repro.lib import cic_decimate

    out = cic_decimate(np.full(factor * 20, 0.75), factor, order)
    np.testing.assert_allclose(out[order + 1:], 0.75, atol=1e-9)


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=2.0, max_value=48.0))
@settings(max_examples=40, deadline=None)
def test_buck_average_equals_duty(duty, v_supply):
    """Cycle-average of the PWL buck equals duty * V/R for any duty."""
    from repro.power import HalfBridgeDriver, RLLoad

    driver = HalfBridgeDriver(
        RLLoad(resistance=1.0, inductance=1e-3),
        v_supply=v_supply, r_on=0.0, pwm_frequency=50e3, duty=duty,
    )
    average = driver.average_output()[0]
    assert average == pytest.approx(duty * v_supply, rel=1e-6)
