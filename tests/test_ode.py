"""`semilind.ode.solve_ivp` against ``scipy.integrate.solve_ivp(method="DOP853")``.

Both run the same tableau, step control and stage sums in the same order,
so each solve must take the same steps and give the same numbers.  Each
system is captured from the solver that integrates it in a registered run:
its right-hand side, initial state, output times and tolerances.
"""

import numpy as np
import pytest
import scipy.integrate

import semilind.doubled as doubled
import semilind.quantum as quantum
import semilind.semiclassical as semiclassical
from semilind import ode
from semilind.gaussian import cat_decompose, coherent
from semilind.harness.config import ExperimentConfig
from semilind.harness.experiments import _initial_vector, default_config
from semilind.quantum import DensityMatrix, FockSpace, integrate_master
from semilind.semiclassical import integrate


def reference(fun, t_span, y0, t_eval, rtol, atol, event=None):
    """scipy's DOP853 solution, and the number of steps it accepted, read
    from the step ends of a second, dense-output solve."""
    kwargs = dict(method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)
    if event is not None:
        def terminal(t, y):
            return event(t, y)

        terminal.terminal, terminal.direction = True, -1
        kwargs["events"] = terminal
    sol = scipy.integrate.solve_ivp(fun, t_span, y0, **kwargs)
    dense = scipy.integrate.solve_ivp(fun, t_span, y0, dense_output=True, **kwargs)
    return sol, len(dense.sol.ts) - 1


def assert_same_solve(args, kwargs):
    got = ode.solve_ivp(*args, **kwargs)
    want, steps = reference(*args, **kwargs)
    assert (got.nfev, got.steps, got.status, got.message) == (
        want.nfev, steps, want.status, want.message)
    assert got.nfev == 2 + 12 * (got.steps + got.rejected) + 3 * got.dense_steps
    np.testing.assert_allclose(got.t, want.t, rtol=1e-13, atol=0)
    np.testing.assert_allclose(got.y, want.y, rtol=1e-13, atol=0)
    assert got.y.T.flags.c_contiguous  # one row per output time
    return got, want


def captured(monkeypatch, module, run):
    """The positional and keyword arguments of the one solve ``run()`` makes
    through ``module.solve_ivp``."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return ode.solve_ivp(*args, **kwargs)

    monkeypatch.setattr(module, "solve_ivp", record)
    run()
    (call,) = calls
    return call


def registered(name):
    config = ExperimentConfig.from_dict(default_config(name))
    return config, config.model.build(config.hbar)


def test_harmonic_oscillator():
    def rhs(t, y):
        return np.array([y[1], -y[0] - 0.1 * y[1]])

    got, _ = assert_same_solve((rhs, (0.0, 20.0), [1.0, 0.0]),
                               dict(t_eval=np.linspace(0.0, 20.0, 41), rtol=1e-9, atol=1e-12))
    assert got.rejected == 0 and got.dense_steps == 41


def test_blow_up_stops_with_the_step_size_underflow():
    """y' = y^2 from y = 1 reaches infinity at t = 1; both solvers stop there
    with the same message, after the same output times."""
    got, _ = assert_same_solve((lambda t, y: y**2, (0.0, 2.0), [1.0]),
                               dict(t_eval=np.linspace(0.0, 2.0, 21), rtol=1e-9, atol=1e-12))
    assert got.status == -1 and not got.success
    assert got.t[-1] == 1.0 and got.rejected > 0


def test_limit_cycle_gaussian_rhs(monkeypatch):
    config, model = registered("limit_cycle")
    state0 = coherent(1, np.array(config.initial.amplitudes), config.hbar)
    args, kwargs = captured(monkeypatch, semiclassical, lambda: integrate(
        model, state0, config.times.grid(), rtol=config.ode_rtol, atol=config.ode_atol))
    got, _ = assert_same_solve(args, kwargs)
    assert got.t.size == 301 and got.rejected > 0


def test_linear_master_rhs(monkeypatch):
    """The q^4 cat's real superoperator, integrated whole."""
    config, model = registered("cat_anharmonic")
    fock = FockSpace([config.fock_levels])
    rho0 = DensityMatrix.from_state(_initial_vector(config, fock), fock)
    args, kwargs = captured(monkeypatch, quantum, lambda: integrate_master(
        rho0, model, config.times.grid(), rtol=config.ode_rtol, atol=config.ode_atol))
    assert args[2].size == 3721
    assert_same_solve(args, kwargs)


def test_doubled_rhs_with_a_breakdown_event(monkeypatch):
    """The cat's stacked doubled system, with its ``breakdown`` function
    raised by 0.5 so that the smallest Im B eigenvalue crosses it, from 2 at
    t = 0, before the end."""
    config, model = registered("cat_anharmonic")
    init = config.initial
    cat = cat_decompose(init.centres, init.coefficients, np.array([[init.width]]),
                        hbar=config.hbar)
    args, kwargs = captured(monkeypatch, doubled, lambda: doubled.propagate_superposition(
        model, cat, config.times.grid(), rtol=config.ode_rtol, atol=config.ode_atol))
    breakdown = kwargs.pop("event")
    kwargs["event"] = lambda t, y: breakdown(t, y) - 0.5
    got, want = assert_same_solve(args, kwargs)
    assert got.status == 1 and 0.2 < got.t_event < got.t[-1] + 0.02
    assert got.t_event == pytest.approx(want.t_events[0][0], rel=1e-12, abs=0)
    np.testing.assert_allclose(got.y_event, want.y_events[0][0], rtol=1e-13, atol=0)
    assert abs(kwargs["event"](got.t_event, got.y_event)) < 1e-9
