import dataclasses
import itertools
import math
import re

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
from gexp import gheat
from gexp.gheat import CFL_SAFETY, _stable_dt, require_safe, safe_window
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
        # the max form shared with the marcher against the two-sided formula,
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


def _n_steps(band, horizon, grid, b, kind):
    bmax = 0.0 if b is None else float(np.max(np.abs(b)))
    n_steps = max(1, math.ceil(horizon / (CFL_SAFETY * _stable_dt(grid, band, bmax, kind))))
    return n_steps, horizon / n_steps


def reference_solve(payoff, band, horizon, grid, spec=None):
    """A one-payoff forward-Euler marcher in coefficient form, with its own
    allocating per-step arithmetic, kept as the bit-exact reference for
    every row of solve_batch: dt times the right-hand side is a sum of each
    node's forward and backward differences times coefficients built once."""
    xs, dx = grid.xs, grid.dx
    u = np.asarray(payoff(xs), dtype=float).copy()
    if spec is None:
        spec = dataclasses.replace(make_drift("zero"), kind=Kind.TIME_DRIVEN)
    b, kind = spec.b(xs), spec.kind
    n_steps, dt = _n_steps(band, horizon, grid, b, kind)
    pe_limit = 1.0 if kind is Kind.QV_DRIVEN else band.v_lo
    centered = np.abs(b) * dx <= pe_limit
    full, half = b * (dt / dx), b * (0.5 * dt / dx)
    # dt*b*u_x = cf*d_f + cb*d_b
    cf = np.where(centered, half, np.where(b > 0.0, full, 0.0))
    cb = np.where(centered, half, np.where(b < 0.0, full, 0.0))
    cf[0], cb[0] = (full[0] if b[0] > 0.0 else 0.0), 0.0
    cf[-1], cb[-1] = 0.0, (full[-1] if b[-1] < 0.0 else 0.0)
    # dt*u_xx/2 = c2*(d_f - d_b) inside, 0 on the zero-curvature boundary
    c2 = np.zeros_like(u)
    c2[1:-1] = 0.5 * dt / dx**2
    for _ in range(n_steps):
        d_f = np.append(np.diff(u), 0.0)
        d_b = np.insert(np.diff(u), 0, 0.0)
        if kind is Kind.QV_DRIVEN:
            q = (cf + c2) * d_f + (cb - c2) * d_b  # dt*q
            u = u + np.maximum(q * band.v_lo, q * band.v_hi)
        else:
            d2 = d_f - d_b
            g = np.maximum(d2 * (c2 * band.v_hi), d2 * (c2 * band.v_lo))  # dt*G(u_xx)
            u = u + (g + d_f * cf + d_b * cb)
    return u, dt, n_steps


def stencil_reference(payoff, band, horizon, grid, spec=None):
    """A one-payoff forward-Euler marcher in stencil form: it forms u_x and
    u_xx, then the right-hand side, then u + dt*rhs, as the marcher did
    before its coefficient form.  Every row of solve_batch meets it within
    rounding."""
    xs, dx = grid.xs, grid.dx
    u = np.asarray(payoff(xs), dtype=float).copy()
    b = None if spec is None else spec.b(xs)
    kind = None if spec is None else spec.kind
    n_steps, dt = _n_steps(band, horizon, grid, b, kind)
    if b is not None:
        pe_limit = 1.0 if kind is Kind.QV_DRIVEN else band.v_lo
        centered = np.abs(b) * dx <= pe_limit
    v_lo, v_hi = band.v_lo, band.v_hi

    def rhs(w):
        wxx = np.zeros_like(w)
        wxx[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) * (1.0 / dx**2)
        g = 0.5 * (v_hi * np.maximum(wxx, 0.0) - v_lo * np.maximum(-wxx, 0.0))
        if b is None:
            return g
        wx = np.zeros_like(w)
        wx[1:-1] = (w[2:] - w[:-2]) * (0.5 / dx)
        fwd = np.zeros_like(w)
        fwd[:-1] = (w[1:] - w[:-1]) * (1.0 / dx)
        bwd = np.zeros_like(w)
        bwd[1:] = (w[1:] - w[:-1]) * (1.0 / dx)
        wx = np.where(centered, wx, np.where(b > 0.0, fwd, np.where(b < 0.0, bwd, wx)))
        wx[0] = fwd[0] if b[0] > 0.0 else 0.0
        wx[-1] = bwd[-1] if b[-1] < 0.0 else 0.0
        if kind is Kind.QV_DRIVEN:
            q = b * wx + 0.5 * wxx
            return np.where(q >= 0.0, v_hi, v_lo) * q
        return b * wx + g

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
        cat = catalog()
        if stack == "single":
            rows = [cat["bump"]]
        else:  # every catalog payoff with mixed powers and shifts, P = 15
            rows = [
                g
                for f in cat.values()
                for g in (f, f.power(1.5), f.power(4.0).shifted(0.3))
            ]
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
        # rounding (measured 1e-14 relative, node by node), with the same step
        band, spec = VolatilityBand(*sigmas), _equations()[eq]
        grid = Grid1D(nx=201)
        rows = [
            g for f in catalog().values() for g in (f, f.power(1.5), f.power(4.0).shifted(0.3))
        ]
        for f, sol in zip(rows, solve_batch(rows, band, 0.5, grid, spec)):
            ref, dt, n_steps = stencil_reference(f, band, 0.5, grid, spec)
            assert (sol.dt, sol.n_steps) == (dt, n_steps)
            np.testing.assert_allclose(sol.values, ref, rtol=1e-12, atol=0.0, err_msg=f.id)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_duplicate_rows_march_once(self, kind, monkeypatch):
        band, grid = VolatilityBand(0.5, 1.0), Grid1D(nx=201)
        spec = dataclasses.replace(make_drift("ou"), kind=kind)
        one, sigmoid = catalog()["one"], catalog()["sigmoid"]
        # two distinct initial rows: one, and sigmoid
        rows = [one, one.power(2.0), sigmoid, sigmoid, sigmoid.shifted(0.0)]
        singles = [solve(f, band, 0.5, grid, spec) for f in rows]
        heights = []

        class Numpy:  # gheat's numpy, noting the height of each work buffer
            def __getattr__(self, name):
                return getattr(np, name)

            def empty_like(self, a):
                heights.append(len(a))
                return np.empty_like(a)

        monkeypatch.setattr(gheat, "np", Numpy())
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
        # overflows; each row still reads only its own nodes and stays constant
        spec = dataclasses.replace(make_drift("ou"), kind=kind)
        levels = (1e308, -1e308)
        rows = [
            TestFunction(f"{c:g}", lambda x, c=c: np.full_like(x, c), positivity=False)
            for c in levels
        ]
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
        horizon = 10 * 50.0 * _stable_dt(grid, band, 0.0, Kind.TIME_DRIVEN)
        with pytest.raises(RuntimeError, match="non-finite values at final step 10"):
            solve_batch([checkerboard], band, horizon, grid)

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
        b = spec.b(grid.xs)
        # tanh:20 upwinds |x| > 0.55 (qv-driven) and |x| > 0.25 (time-driven)
        nodes = [int(np.argmin(np.abs(grid.xs - x))) for x in (-2.0, 0.0, 0.6, 2.0)]
        cauchy = catalog()["cauchy"]  # curvature switches at |x| = 0.577

        def raised(j):
            return TestFunction(
                f"cauchy+delta@{j}",
                lambda x: cauchy(x) + np.where(np.arange(x.size) == j, self.DELTA, 0.0),
            )

        horizon = steps * gheat.CFL_SAFETY * _stable_dt(grid, band, float(np.max(np.abs(b))), kind)
        sols = solve_batch([cauchy] + [raised(j) for j in nodes], band, horizon, grid, spec)
        assert sols[0].n_steps in (steps, steps + 1)
        return np.stack([sol.values - sols[0].values for sol in sols[1:]])

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("drift", ["tanh:20", "ou"])
    def test_monotone_and_nonexpansive(self, drift, kind):
        diffs = self._differences(drift, kind)
        assert np.min(diffs) >= -1e-15
        assert np.max(diffs) <= self.DELTA + 1e-15

    @pytest.mark.parametrize("kind", list(Kind))
    def test_fails_above_the_cfl_step(self, kind, monkeypatch):
        # the check has teeth: at 1.5 times the stable step it fails
        monkeypatch.setattr(gheat, "CFL_SAFETY", 1.5)
        diffs = self._differences("tanh:20", kind)
        assert np.min(diffs) < -1e-15 or np.max(diffs) > self.DELTA + 1e-15


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
