import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexp import (
    Grid1D,
    GsdeSpec,
    Kind,
    TestFunction,
    VolatilityBand,
    catalog,
    g_operator,
    make_drift,
    pbar_pde,
    solve,
    solve_batch,
)
import gexp
from gexp import gheat
from gexp.cli import main
from gexp.gheat import CFL_SAFETY, require_safe, safe_window
from gexp.kernels import normal_expectation

from conftest import classical_params
from oracles import gnormal_digital


class TestGOperator:
    def test_derived_values(self):
        band = VolatilityBand(0.5, 1.0)
        assert g_operator(2.0, band) == pytest.approx(1.0, abs=1e-15)
        assert g_operator(-2.0, band) == pytest.approx(-0.25, abs=1e-15)
        assert g_operator(0.0, band) == 0.0

    @given(
        a=st.floats(-100.0, 100.0),
        b=st.floats(-100.0, 100.0),
        lam=st.floats(0.0, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_homogeneous_and_subadditive(self, a, b, lam):
        band = VolatilityBand(0.5, 1.0)
        assert g_operator(lam * a, band) == pytest.approx(
            lam * g_operator(a, band), rel=1e-12, abs=1e-12
        )
        assert g_operator(a + b, band) <= g_operator(a, band) + g_operator(b, band) + 1e-12

    @pytest.mark.parametrize("sigmas", [(0.5, 1.0), (0.7, 0.7)])
    def test_bits_of_two_sided_formula(self, sigmas):
        # the max form of g_operator against the two-sided formula,
        # byte for byte, signed zeros and subnormal products included
        band = VolatilityBand(*sigmas)
        special = [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324]
        rng = np.random.default_rng(5)
        scales = 10.0 ** rng.integers(-300, 300, 1000)
        a = np.concatenate([special, rng.standard_normal(1000) * scales])
        with np.errstate(over="ignore"):
            two_sided = 0.5 * (band.v_hi * np.maximum(a, 0.0) - band.v_lo * np.maximum(-a, 0.0))
            assert g_operator(a, band).tobytes() == two_sided.tobytes()
            for x, want in zip(special, two_sided):
                assert np.float64(g_operator(x, band)).tobytes() == want.tobytes(), x


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(nx=2)
        with pytest.raises(ValueError):
            Grid1D(x_min=1.0, x_max=0.0)

    @pytest.mark.parametrize(
        "kw",
        [{"x_min": -math.inf}, {"x_max": math.inf}, {"x_max": math.nan},
         {"x_min": -1e308, "x_max": 1e308}],
        ids=["xmin-inf", "xmax-inf", "xmax-nan", "width-inf"],
    )
    def test_unusable_values_rejected(self, kw):
        with pytest.raises(ValueError):
            Grid1D(**kw)

    @pytest.mark.parametrize(
        "horizon", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"]
    )
    def test_unusable_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            solve_batch([catalog()["sigmoid"]], VolatilityBand(0.5, 1.0), horizon, Grid1D())

    def test_non_finite_drift_rejected(self):
        # finite on the Lipschitz check grid [-10, 10], NaN beyond |x| = 11;
        # this failed with "cannot convert float NaN to integer"
        spec = GsdeSpec(lambda x: np.where(np.abs(x) > 11.0, np.nan, -x), 1.0, Kind.QV_DRIVEN)
        with pytest.raises(ValueError, match="drift is not finite on the grid, first at x = -12"):
            solve_batch(
                [catalog()["sigmoid"]], VolatilityBand(0.5, 1.0), 1.0,
                Grid1D(-12.0, 12.0, 241), spec,
            )

    def test_step_budget(self):
        # the budget is checked before a payoff is evaluated or a step taken
        calls = []
        payoff = TestFunction("spy", lambda x: calls.append(1) or np.zeros_like(x))
        with pytest.raises(ValueError, match=r"needs 4\.44e\+11 steps, above the budget"):
            solve_batch([payoff], VolatilityBand(0.5, 1.0), 1e9, Grid1D())
        assert calls == []

    @pytest.mark.parametrize(
        "grid, spec, message",
        [(Grid1D(0.0, 1e-300), None, "needs inf steps"),
         (Grid1D(-1e200, 1e200), None, r"the grid step 5e\+197 is too large"),
         (Grid1D(), make_drift("const:1e308"), "needs inf steps"),
         (Grid1D(), make_drift("const:1e300"), r"needs 2\.22e\+301 steps")],
        ids=["dx2-underflows", "dx2-overflows", "drift-overflows", "drift-huge"],
    )
    def test_degenerate_cfl_step_rejected(self, grid, spec, message):
        # a ZeroDivisionError, an OverflowError, math.ceil(inf) and a
        # 302-digit step count before the step ratio was checked as a float
        calls = []
        payoff = TestFunction("spy", lambda x: calls.append(1) or np.zeros_like(x))
        with pytest.raises(ValueError, match=message):
            solve_batch([payoff], VolatilityBand(0.5, 1.0), 1.0, grid, spec)
        assert calls == []


def _maps(band, grid, spec):
    """Each band edge's three-point map, v_lo first, as rows (a, c) per unit
    dt with beta*u_x + v*u_xx/2 = a*d_f + c*d_b: beta = v*b for the
    qv-driven equation and b otherwise; a map is centered where
    |beta|*dx <= v and follows the flow elsewhere, and a boundary node
    takes the one-sided difference when the flow enters, with zero
    curvature."""
    dx = grid.dx
    if spec is None:
        spec = dataclasses.replace(make_drift("zero"), kind=Kind.TIME_DRIVEN)
    b = spec.b(grid.xs)
    maps = []
    for v in (band.v_lo, band.v_hi):
        beta = v * b if spec.kind is Kind.QV_DRIVEN else b
        centered = np.abs(beta) * dx <= v
        full, half = beta / dx, beta * (0.5 / dx)
        a = np.where(centered, half, np.where(beta > 0.0, full, 0.0))
        c = np.where(centered, half, np.where(beta < 0.0, full, 0.0))
        a[0], c[0] = (full[0] if beta[0] > 0.0 else 0.0), 0.0
        a[-1], c[-1] = 0.0, (full[-1] if beta[-1] < 0.0 else 0.0)
        diffusion = np.zeros_like(b)
        diffusion[1:-1] = 0.5 * v / grid.dx**2
        maps.append((beta, a + diffusion, c - diffusion))
    return maps


def _n_steps(horizon, maps):
    """The step count at CFL_SAFETY times the largest step that keeps every
    map's weight 1 - dt*(a - c) on its own node nonnegative."""
    dt_max = 1.0 / max(float(np.max(a - c)) for _, a, c in maps)
    n_steps = max(1, math.ceil(horizon / (CFL_SAFETY * dt_max)))
    return n_steps, horizon / n_steps


def reference_solve(payoff, band, horizon, grid, spec=None):
    """A one-payoff forward-Euler marcher in coefficient form, with its own
    allocating per-step arithmetic, kept as the bit-exact reference for
    every row of solve_batch: dt times the right-hand side is the max over
    the band edges of a map that sums each node's forward and backward
    differences times coefficients built once."""
    u = np.asarray(payoff(grid.xs), dtype=float).copy()
    maps = _maps(band, grid, spec)
    n_steps, dt = _n_steps(horizon, maps)
    (_, a_lo, c_lo), (_, a_hi, c_hi) = [(beta, a * dt, c * dt) for beta, a, c in maps]
    for _ in range(n_steps):
        d_f = np.append(np.diff(u), 0.0)
        d_b = np.insert(np.diff(u), 0, 0.0)
        u = u + np.maximum(d_f * a_hi + d_b * c_hi, d_f * a_lo + d_b * c_lo)
    return u, dt, n_steps


def stencil_reference(payoff, band, horizon, grid, spec=None):
    """A one-payoff forward-Euler marcher in stencil form: it forms u_xx and
    each band edge's u_x, then the right-hand side max_v(beta*u_x +
    v*u_xx/2), then u + dt*rhs.  Every row of solve_batch meets it within
    rounding."""
    dx = grid.dx
    u = np.asarray(payoff(grid.xs), dtype=float).copy()
    maps = _maps(band, grid, spec)
    n_steps, dt = _n_steps(horizon, maps)
    edges = list(zip((band.v_lo, band.v_hi), (beta for beta, _, _ in maps)))

    def rhs(w):
        wxx = np.zeros_like(w)
        wxx[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) * (1.0 / dx**2)
        centered = np.zeros_like(w)
        centered[1:-1] = (w[2:] - w[:-2]) * (0.5 / dx)
        fwd = np.zeros_like(w)
        fwd[:-1] = (w[1:] - w[:-1]) * (1.0 / dx)
        bwd = np.zeros_like(w)
        bwd[1:] = (w[1:] - w[:-1]) * (1.0 / dx)
        out = []
        for v, beta in edges:
            wx = np.where(np.abs(beta) * dx <= v, centered, np.where(beta > 0.0, fwd, bwd))
            wx[0] = fwd[0] if beta[0] > 0.0 else 0.0
            wx[-1] = bwd[-1] if beta[-1] < 0.0 else 0.0
            out.append(beta * wx + 0.5 * v * wxx)
        return np.maximum(*out)

    for _ in range(n_steps):
        u = u + dt * rhs(u)
    return u, dt, n_steps


def _equations():
    drifts = {
        "ou": make_drift("ou"),
        "steep": make_drift("tanh:20"),  # one-sided differences inside the domain
        "zero": make_drift("zero"),
        "const": make_drift("const:0.8"),
    }
    eqs = {"gheat": None}
    for name, spec in drifts.items():
        eqs["qv-" + name] = spec
        eqs["time-" + name] = dataclasses.replace(spec, kind=Kind.TIME_DRIVEN)
    return eqs


def _views_at(offset):
    """A stand-in for gheat._aligned whose views put element `lead` offset
    bytes past a 64-byte boundary."""

    def views(n, lead=0):
        buf = np.empty(n + 8)
        skip = (offset - buf.ctypes.data - 8 * lead) % 64 // 8
        view = buf[skip:skip + n]
        assert (view.ctypes.data + 8 * lead) % 64 == offset
        return view

    return views


def _mixed_stack():
    """Every catalog payoff with mixed powers and shifts, P = 15.  The
    constant `one` gives three constant rows, which march with the others."""
    return [g for f in catalog().values() for g in (f, f.power(1.5), f.power(4.0).shifted(0.3))]


def _constant(level):
    """The payoff equal to level at every node."""
    return TestFunction(f"{level:g}", lambda x: np.full_like(x, level), positivity=False)


class TestAlignedBuffers:
    @pytest.mark.parametrize("base", range(0, 64, 8))
    def test_views_start_on_64_bytes(self, base, monkeypatch):
        # np.empty at every 8-byte offset from a boundary, not only the
        # 16-byte ones that malloc hands out
        class Numpy:  # gheat's numpy, whose empty returns views base bytes past a boundary
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, n):
                return _views_at(base)(n)

        monkeypatch.setattr(gheat, "np", Numpy())
        for n, lead in itertools.product(range(1, 65), (0, 1)):
            view = gheat._aligned(n, lead)
            assert view.shape == (n,) and view.dtype == np.float64
            assert view.flags.c_contiguous and view.flags.writeable
            assert (view.ctypes.data + 8 * lead) % 64 == 0, (n, lead)

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("P", [1, 7, 32])
    def test_march_buffers_aligned(self, kind, P, monkeypatch):
        # the march takes from the helper, in any order: u, the four
        # coefficient rows, k and t (P*nx each), and fp with fp[1] aligned
        grid = Grid1D(nx=201)
        spec = dataclasses.replace(make_drift("ou"), kind=kind)
        rows = [catalog()["sigmoid"].shifted(0.01 * i) for i in range(P)]
        views, aligned = [], gheat._aligned

        def spy(n, lead=0):
            views.append((aligned(n, lead), lead))
            return views[-1][0]

        monkeypatch.setattr(gheat, "_aligned", spy)
        sols = solve_batch(rows, VolatilityBand(0.5, 1.0), 0.1, grid, spec)
        size = P * grid.nx
        assert sorted((len(v), lead) for v, lead in views) == [(size, 0)] * 7 + [(size + 1, 1)]
        for view, lead in views:
            assert (view.ctypes.data + 8 * lead) % 64 == 0
        stack = np.concatenate([sol.values for sol in sols]).tobytes()
        assert any(view.tobytes() == stack for view, _ in views)  # u is one of them

    @pytest.mark.parametrize("eq", list(_equations()))
    def test_layout_moves_no_byte(self, eq, monkeypatch):
        band, spec, grid = VolatilityBand(0.5, 1.0), _equations()[eq], Grid1D(nx=201)
        rows = _mixed_stack()
        want = [sol.values.tobytes() for sol in solve_batch(rows, band, 0.5, grid, spec)]
        for offset in (8, 16, 32):
            monkeypatch.setattr(gheat, "_aligned", _views_at(offset))
            sols = solve_batch(rows, band, 0.5, grid, spec)
            assert [sol.values.tobytes() for sol in sols] == want, offset


class TestSolveBatch:
    @pytest.mark.parametrize(
        "eq, sigmas",
        [
            pytest.param(eq, sigmas, id=eq + suffix)
            for eq in _equations()
            # a degenerate band gives the max forms of G and v* equal operands
            for suffix, sigmas in (("", (0.5, 1.0)), ("-degenerate", (0.8, 0.8)))
        ],
    )
    @pytest.mark.parametrize("stack", ["single", "mixed"])
    def test_rows_bit_identical_to_single_solves(self, eq, sigmas, stack):
        band = VolatilityBand(*sigmas)
        spec = _equations()[eq]
        grid = Grid1D(nx=201)
        rows = [catalog()["bump"]] if stack == "single" else _mixed_stack()
        sols = solve_batch(rows, band, 0.5, grid, spec)
        assert len(sols) == len(rows)
        for f, sol in zip(rows, sols):
            one = solve(f, band, 0.5, grid, spec)
            assert np.array_equal(sol.values, one.values), f.id
            assert (sol.dt, sol.n_steps) == (one.dt, one.n_steps)
            ref, dt, n_steps = reference_solve(f, band, 0.5, grid, spec)
            assert sol.values.tobytes() == ref.tobytes(), f.id
            assert (sol.dt, sol.n_steps) == (dt, n_steps)

    @pytest.mark.parametrize("eq", list(_equations()))
    @pytest.mark.parametrize("sigmas", [(0.5, 1.0), (0.8, 0.8)], ids=["0.5-1", "degenerate"])
    def test_rows_meet_the_stencil_form(self, eq, sigmas):
        # the coefficient form regroups the stencil's arithmetic: equal up to
        # rounding (measured 2.5e-15 relative, node by node), with the same step
        band, spec = VolatilityBand(*sigmas), _equations()[eq]
        grid = Grid1D(nx=201)
        rows = _mixed_stack()
        for f, sol in zip(rows, solve_batch(rows, band, 0.5, grid, spec)):
            ref, dt, n_steps = stencil_reference(f, band, 0.5, grid, spec)
            assert (sol.dt, sol.n_steps) == (dt, n_steps)
            np.testing.assert_allclose(sol.values, ref, rtol=1e-12, atol=0.0, err_msg=f.id)

    @pytest.mark.parametrize("eq", ["qv-ou", "time-ou", "gheat"])
    def test_steps_of_the_default_march(self, eq):
        # each map upwinds only where its centered difference is not
        # monotone, so with ou on the default grid the step is dx^2/v_hi for
        # every equation: 445 steps to T = 1.  One step bound for both maps,
        # dx^2/(v_hi + dx*max|beta|), took 667 for either drift equation
        band, grid = VolatilityBand(0.5, 1.0), Grid1D()
        sol = solve(catalog()["sigmoid"], band, 1.0, grid, _equations()[eq])
        assert sol.n_steps == 445

    @pytest.mark.parametrize("kind", list(Kind))
    def test_duplicate_rows_march_once(self, kind, monkeypatch):
        band, grid = VolatilityBand(0.5, 1.0), Grid1D(nx=201)
        spec = dataclasses.replace(make_drift("ou"), kind=kind)
        one, sigmoid = catalog()["one"], catalog()["sigmoid"]
        # two distinct initial rows: one, and sigmoid
        rows = [one, one.power(2.0), sigmoid, sigmoid, sigmoid.shifted(0.0)]
        singles = [solve(f, band, 0.5, grid, spec) for f in rows]
        heights = []
        aligned = gheat._aligned

        def spy(n, lead=0):  # gheat._aligned, noting the height of each work buffer
            heights.append(n // grid.nx)
            return aligned(n, lead)

        monkeypatch.setattr(gheat, "_aligned", spy)
        sols = solve_batch(rows, band, 0.5, grid, spec)
        monkeypatch.undo()
        assert heights and set(heights) == {2}
        for f, sol, single in zip(rows, sols, singles):
            assert sol.values.tobytes() == single.values.tobytes(), f.id
            assert (sol.dt, sol.n_steps) == (single.dt, single.n_steps)
        for i, j in itertools.combinations(range(len(sols)), 2):
            assert not np.shares_memory(sols[i].values, sols[j].values), (i, j)
        sols[2].values[:] = 0.0
        assert sols[3].values.tobytes() == singles[3].values.tobytes()

    @pytest.mark.parametrize("kind", list(Kind))
    def test_rows_read_nothing_across_a_seam(self, kind):
        # the flat difference between two neighbouring rows, 1e308 - -1e308,
        # overflows; each row still reads only its own nodes and stays constant.
        # The sigmoid row makes the stack march: constant rows alone take no step
        spec = dataclasses.replace(make_drift("ou"), kind=kind)
        levels = (1e308, -1e308)
        rows = [_constant(c) for c in levels] + [catalog()["sigmoid"]]
        sols = solve_batch(rows, VolatilityBand(0.5, 1.0), 0.1, Grid1D(nx=21), spec)
        for c, sol in zip(levels, sols):
            assert np.all(sol.values == c), c

    def test_overflow_after_step_0_caught_at_the_final_step(self, monkeypatch):
        # at 50 times the stable step a checkerboard row grows 25- to
        # 99-fold a step: finite after step 0 (the first periodic check),
        # infinite before step 10, the last, which comes before step 128
        monkeypatch.setattr(gheat, "CFL_SAFETY", 50.0)
        band, grid = VolatilityBand(0.5, 1.0), Grid1D(nx=21)
        checkerboard = TestFunction(
            "checkerboard", lambda x: 1e300 * (-1.0) ** np.arange(x.size), positivity=False
        )
        # 9.5 of the drift-free steps dx^2/v_hi: 10 steps, whatever the rounding
        horizon = 9.5 * 50.0 * grid.dx**2 / band.v_hi
        with pytest.raises(RuntimeError, match="non-finite values at final step 10"):
            solve_batch([checkerboard], band, horizon, grid)

    @pytest.mark.parametrize("eq", list(_equations()))
    def test_flat_stack_takes_no_step(self, eq, monkeypatch):
        # a finite constant row is a fixed point of the step, bar a -0.0 that
        # the first step makes +0.0: the march's bytes and step count, with
        # no coefficient or work buffer taken
        band, spec, grid = VolatilityBand(0.5, 1.0), _equations()[eq], Grid1D(nx=201)
        one = catalog()["one"]
        signed_zeros = TestFunction(
            "signed-zeros", lambda x: np.where(np.arange(x.size) % 3 == 1, -0.0, 0.0),
            positivity=False,
        )
        rows = [one, one.power(2.0), one.scaled(0.3), _constant(-0.0), _constant(1e308),
                signed_zeros]
        buffers, aligned = [], gheat._aligned

        def spy(n, lead=0):  # gheat._aligned, noting every buffer taken
            buffers.append(n)
            return aligned(n, lead)

        monkeypatch.setattr(gheat, "_aligned", spy)
        sols = solve_batch(rows, band, 0.5, grid, spec)
        monkeypatch.undo()
        assert buffers == []
        for sol in (sols[3], sols[5]):
            assert sol.values.tobytes() == np.zeros(grid.nx).tobytes()
        for f, sol in zip(rows, sols):
            ref, dt, n_steps = reference_solve(f, band, 0.5, grid, spec)
            assert sol.values.tobytes() == ref.tobytes(), f.id
            assert (sol.dt, sol.n_steps) == (dt, n_steps)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_row_is_marched(self, level, band_wide, ou_spec):
        for rows in ([_constant(level)], [catalog()["one"], _constant(level)]):
            with pytest.raises(RuntimeError, match=re.escape("non-finite values at step 0")):
                solve_batch(rows, band_wide, 1.0, Grid1D(nx=201), ou_spec)

    def test_flat_stack_keeps_the_step_budget(self, capsys):
        # the step count is checked before any row is looked at
        args = ["gheat", "--band", "0.5,1", "--payoff", "one", "--T", "1", "--nx", "100001"]
        assert main(args) == 2
        assert "above the budget of 1000000" in capsys.readouterr().err

    def test_non_finite_row_fails_the_stack(self, band_wide, ou_spec):
        nan_at_node = TestFunction(
            "nan", lambda x: np.where(x == x[200], np.nan, 0.5), positivity=False
        )
        sigmoid, bump = catalog()["sigmoid"], catalog()["bump"]
        # a duplicated row is marched once, and still fails the stack
        for rows in ([sigmoid, nan_at_node, bump], [nan_at_node, sigmoid, nan_at_node, bump]):
            with pytest.raises(RuntimeError, match=re.escape("non-finite values at step 0")):
                solve_batch(rows, band_wide, 1.0, Grid1D(), ou_spec)


class TestGHeatSolve:
    def test_second_moment_degenerate_band(self, grid):
        # classical heat equation: E[X_1^2] = 1 starting from 0
        sol = solve(catalog()["sqclip"], VolatilityBand(1.0, 1.0), 1.0, grid)
        assert sol.value_at(0.0) == pytest.approx(1.0, abs=2e-3)

    def test_gnormal_moments_wide_band(self, grid, band_wide):
        # +clipped-x^2 sees the upper volatility, -clipped-x^2 the lower
        up = solve(catalog()["sqclip"], band_wide, 1.0, grid).value_at(0.0)
        neg = TestFunction(
            "neg-sqclip", lambda x: -np.minimum(x**2, 25.0), positivity=False, bound=25.0
        )
        dn = solve(neg, band_wide, 1.0, grid).value_at(0.0)
        assert up == pytest.approx(1.0, abs=1e-2)
        assert dn == pytest.approx(-0.25, abs=1e-2)

    def test_constant_preserved_exactly(self, grid, band_wide, ou_spec):
        for spec in (None, ou_spec, dataclasses.replace(ou_spec, kind=Kind.TIME_DRIVEN)):
            sol = solve(catalog()["one"], band_wide, 1.0, grid, spec)
            assert np.all(sol.values == 1.0)

    def test_comparison_principle_bound(self, grid, band_wide, ou_spec):
        for pid, f in catalog().items():
            sol = solve(f, band_wide, 1.0, grid, ou_spec)
            assert np.all(sol.values <= f.bound + 1e-12), pid
            assert np.all(sol.values >= -1e-12), pid

    def test_monotone_in_payoff(self, grid, band_wide, ou_spec):
        lo, hi = safe_window(grid, band_wide, 1.0)
        mask = (grid.xs >= lo) & (grid.xs <= hi)
        one = solve(catalog()["one"], band_wide, 1.0, grid, ou_spec).values
        for pid in ("sigmoid", "cauchy", "bump"):
            sol = solve(catalog()[pid], band_wide, 1.0, grid, ou_spec).values
            assert np.max((sol - one)[mask]) <= 2e-3, pid

    def test_classical_reduction_quadrature(self, grid, band_classical):
        for did in ("zero", "ou"):
            spec = make_drift(did)
            sol = solve(catalog()["sigmoid"], band_classical, 1.0, grid, spec)
            for x in (-1.0, 0.0, 1.0):
                mean, var = classical_params(did, x)
                oracle = normal_expectation(catalog()["sigmoid"], mean, var, 64)
                assert sol.value_at(x) == pytest.approx(oracle, rel=1e-3), (did, x)

    def test_time_driven_classical_reduction(self, grid, band_classical, ou_spec):
        spec = dataclasses.replace(ou_spec, kind=Kind.TIME_DRIVEN)
        sol = solve(catalog()["cauchy"], band_classical, 1.0, grid, spec)
        mean, var = classical_params("ou", 1.0)
        oracle = normal_expectation(catalog()["cauchy"], mean, var, 128)
        assert sol.value_at(1.0) == pytest.approx(oracle, rel=1e-3)

    def test_grid_refinement_stability(self, band_wide, ou_spec):
        coarse = solve(catalog()["sigmoid"], band_wide, 1.0, Grid1D(nx=201), ou_spec)
        fine = solve(catalog()["sigmoid"], band_wide, 1.0, Grid1D(nx=401), ou_spec)
        assert abs(coarse.value_at(0.5) - fine.value_at(0.5)) < 4 * 2e-3

    def test_strong_feller_smoothing(self, band_wide):
        # a near-step payoff: the solution's modulus of continuity shrinks
        # with dx while the payoff's stays order one
        step = TestFunction("step", lambda x: 1.0 / (1.0 + np.exp(-x / 0.05)))
        diffs = []
        for nx in (201, 401):
            grid = Grid1D(nx=nx)
            lo, hi = safe_window(grid, band_wide, 1.0)
            mask = (grid.xs >= lo) & (grid.xs <= hi)
            u = solve(step, band_wide, 1.0, grid).values[mask]
            diffs.append(np.max(np.abs(np.diff(u))))
        assert diffs[1] < 0.7 * diffs[0]
        assert diffs[1] < 0.05


class TestGNormalDigital:
    """The G-heat equation against its exact switching solution
    u(t, x) = F(x / sqrt(t)) (tests/oracles.gnormal_digital), started from
    u(0.25, .) and marched 0.75 to t = 1."""

    # The tolerance comes from the refinement: R = max|u_401 - u_801| / 3 is
    # the Richardson estimate of the nx 801 error of a second-order scheme,
    # and the nx 401 error is about 4R.  The measured errors were 1.01-1.10
    # times these estimates in both bands, for a one-stage and a two-stage
    # march alike; the slack leaves room for that ratio, not for a scheme
    # that converges to another function.
    RICHARDSON_SLACK = 1.25

    @pytest.mark.parametrize("sigmas", [(0.5, 1.0), (0.25, 1.0)], ids=["0.5-1", "0.25-1"])
    def test_second_order_against_exact_solution(self, sigmas):
        band = VolatilityBand(*sigmas)
        datum = TestFunction("digital@0.25", lambda x: gnormal_digital(x / 0.5, band))
        errors, inner = {}, {}
        for nx in (401, 801):
            grid = Grid1D(nx=nx)
            window = np.abs(grid.xs) <= 4.0
            u = solve(datum, band, 0.75, grid).values[window]
            inner[nx] = u
            errors[nx] = np.max(np.abs(u - gnormal_digital(grid.xs[window], band)))
        estimate = np.max(np.abs(inner[401] - inner[801][::2])) / 3.0
        assert errors[801] <= self.RICHARDSON_SLACK * estimate, (errors, estimate)
        assert errors[401] <= self.RICHARDSON_SLACK * 4.0 * estimate, (errors, estimate)
        assert math.log2(errors[401] / errors[801]) >= 1.8, errors


class TestMonotoneMarch:
    """Raising the datum by delta at one node moves every marched value by
    between 0 and delta: the march is monotone and nonexpansive in the sup
    norm at the CFL step, which the comparison principle rests on."""

    DELTA = 1e-6

    def _differences(self, drift, kind, steps=4):
        band, grid = VolatilityBand(0.5, 1.0), Grid1D(nx=201)
        spec = dataclasses.replace(make_drift(drift), kind=kind)
        # tanh:20 upwinds |x| > 0.55, and in the time-driven v_lo map |x| > 0.13
        nodes = [int(np.argmin(np.abs(grid.xs - x))) for x in (-2.0, 0.0, 0.6, 2.0)]
        cauchy = catalog()["cauchy"]  # curvature switches at |x| = 0.577

        def raised(j):
            return TestFunction(
                f"cauchy+delta@{j}",
                lambda x: cauchy(x) + np.where(np.arange(x.size) == j, self.DELTA, 0.0),
            )

        # the step that solve_batch takes at this CFL_SAFETY, to within a
        # hundredth: the step of a march of at least a hundred steps
        probe = solve(cauchy, band, 4.0, grid, spec)
        assert probe.n_steps >= 100
        dt = probe.dt
        sols = solve_batch([cauchy] + [raised(j) for j in nodes], band, steps * dt, grid, spec)
        assert sols[0].n_steps in (steps, steps + 1)
        return np.stack([sol.values - sols[0].values for sol in sols[1:]])

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("drift", ["tanh:20", "ou"])
    def test_monotone_and_nonexpansive(self, drift, kind):
        diffs = self._differences(drift, kind)
        assert np.min(diffs) >= -1e-15
        assert np.max(diffs) <= self.DELTA + 1e-15

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("drift", ["tanh:20", "ou"])
    def test_monotone_at_the_full_step(self, drift, kind, monkeypatch):
        # the step is the largest at which every map keeps its weights >= 0
        monkeypatch.setattr(gheat, "CFL_SAFETY", 1.0)
        diffs = self._differences(drift, kind)
        assert np.min(diffs) >= -1e-15
        assert np.max(diffs) <= self.DELTA + 1e-15

    @pytest.mark.parametrize("kind", list(Kind))
    def test_fails_above_the_cfl_step(self, kind, monkeypatch):
        # the check has teeth: at 1.5 times the stable step it fails, both
        # where the step is bound by an upwinded node (tanh:20) and where it
        # is bound by the centered diffusion (ou)
        monkeypatch.setattr(gheat, "CFL_SAFETY", 1.5)
        for drift in ("tanh:20", "ou"):
            diffs = self._differences(drift, kind)
            assert np.min(diffs) < -1e-15 or np.max(diffs) > self.DELTA + 1e-15, drift


def _avx512() -> bool:
    """Whether numpy finds AVX512F and the X86_V4 level that dispatches to it."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX512F") and __cpu_features__.get("X86_V4"))


# numpy's AVX-512 dispatch targets: disabling X86_V4 alone leaves the other
# two on, so a child that runs without AVX-512 loops names all three
_AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

# Solves stacks whose initial rows use no exp, log or power, and prints the
# sha256 of every marched row and whether numpy dispatches to each AVX-512 target.
_DISPATCH_CHILD = """
import dataclasses, hashlib, itertools
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from gexp import Grid1D, Kind, TestFunction, VolatilityBand, make_drift, solve_batch
rows = [
    TestFunction("tanh-step", lambda x: 0.5 * (1.0 + np.tanh(x))),
    TestFunction("sqclip", lambda x: np.minimum(x * x, 25.0), bound=25.0),
    TestFunction("neg-sqclip", lambda x: -np.minimum(x * x, 25.0), positivity=False, bound=25.0),
]
digest = hashlib.sha256()
for drift, kind, sigmas in itertools.product(
    ("ou", "tanh:2", "tanh:20", "const:0.8"), Kind, ((0.5, 1.0), (0.25, 1.0))
):
    spec = dataclasses.replace(make_drift(drift), kind=kind)
    for sol in solve_batch(rows, VolatilityBand(*sigmas), 1.0, Grid1D(), spec):
        digest.update(sol.values.tobytes())
print(digest.hexdigest(), *(bool(__cpu_features__.get(t)) for t in TARGETS))
"""


@pytest.mark.skipif(not _avx512(), reason="numpy dispatches to no AVX-512 loops here")
def test_march_is_dispatch_stable():
    """A step adds, subtracts, multiplies and takes maxima, which IEEE 754
    rounds exactly whatever the SIMD loop: from the same initial bytes the
    march gives the same bytes with numpy's AVX-512 loops turned off."""
    src = str(Path(gexp.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = src
    outputs = []
    child = f"TARGETS = {_AVX512_TARGETS!r}\n" + _DISPATCH_CHILD
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512_TARGETS)}):
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env={**env, **extra},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    (full, *full_on), (v3, *v3_on) = outputs
    assert full_on[0] == "True"  # as the skip condition found
    assert v3_on == ["False"] * len(_AVX512_TARGETS)
    assert full == v3


class TestPbarPde:
    def test_constant_payoff_exact(self, band_wide, ou_spec):
        assert pbar_pde(ou_spec, catalog()["one"], 0.0, 1.0, band_wide) == 1.0

    def test_classical_sigmoid_oracle(self, band_classical):
        spec = make_drift("zero")
        val = pbar_pde(spec, catalog()["sigmoid"], 0.0, 1.0, band_classical)
        oracle = normal_expectation(catalog()["sigmoid"], 0.0, 1.0, 64)
        assert val == pytest.approx(oracle, rel=1e-3)

    def test_wider_band_dominates(self, band_wide, band_classical):
        # sup over a superset of scenarios can only grow
        spec = make_drift("const:0.5")
        for pid in ("sigmoid", "cauchy", "bump", "sqclip"):
            wide = pbar_pde(spec, catalog()[pid], 0.0, 1.0, band_wide)
            tight = pbar_pde(spec, catalog()[pid], 0.0, 1.0, band_classical)
            assert wide >= tight - 2e-3, pid

    def test_padding_zone_rejected(self, band_classical):
        spec = make_drift("zero")
        with pytest.raises(ValueError):
            pbar_pde(spec, catalog()["sigmoid"], 9.5, 1.0, band_classical)
        with pytest.raises(ValueError):
            require_safe(-9.5, Grid1D(), band_classical, 1.0)

    def test_value_outside_the_grid_rejected(self, band_classical):
        sol = solve(catalog()["sigmoid"], band_classical, 1.0, Grid1D(nx=21))
        for x in (-10.5, 10.5):
            with pytest.raises(ValueError, match=f"x={x} outside the grid"):
                sol.value_at(x)

    def test_truncation_check_passes_for_interior_point(self, band_classical):
        # doubling the default domain [-10, 10] moves an interior value by
        # less than 1e-6
        spec = make_drift("zero")
        f = catalog()["sigmoid"]
        val = pbar_pde(spec, f, 0.0, 1.0, band_classical)
        wide = pbar_pde(spec, f, 0.0, 1.0, band_classical, Grid1D(-20.0, 20.0, 801))
        assert abs(val - wide) <= 1e-6
        assert 0.4 < val < 0.6

    def test_subadditive_and_homogeneous(self, grid, band_wide, ou_spec):
        cat = catalog()
        f, g = cat["sigmoid"], cat["bump"]
        vf = pbar_pde(ou_spec, f, 0.0, 1.0, band_wide, grid)
        vg = pbar_pde(ou_spec, g, 0.0, 1.0, band_wide, grid)
        vs = pbar_pde(ou_spec, f.plus(g), 0.0, 1.0, band_wide, grid)
        assert vs <= vf + vg + 2e-3
        lam = 3.0
        vl = pbar_pde(ou_spec, f.scaled(lam), 0.0, 1.0, band_wide, grid)
        assert vl == pytest.approx(lam * vf, abs=1e-12)
