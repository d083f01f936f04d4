import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexp import (
    Grid1D,
    Kind,
    VolatilityBand,
    catalog,
    harnack_exponent,
    harnack_grid,
    make_drift,
    novikov_pathwise_bound,
    shift_harnack_exponent,
    shift_harnack_grid,
    verify_harnack,
    verify_shift_harnack,
)
from gexp.kernels import normal_expectation

mpmath.mp.dps = 50


class TestHarnackExponent:
    def test_reference_value_high_precision(self):
        # p=2, K=1, degenerate unit band, T=1, dist=1 -> 2/(1-e^{-2})
        oracle = float(2 / (1 - mpmath.e**-2))
        val = harnack_exponent(2.0, 1.0, VolatilityBand(1.0, 1.0), 1.0, 1.0)
        assert abs(val - oracle) < 1e-9

    def test_zero_distance(self):
        assert harnack_exponent(2.0, 1.0, VolatilityBand(0.5, 1.0), 1.0, 0.0) == 0.0

    def test_large_horizon_limit_degenerate(self):
        # T -> inf with unit band: p K / (p-1)
        val = harnack_exponent(2.0, 1.0, VolatilityBand(1.0, 1.0), 50.0, 1.0)
        assert abs(val - 2.0) < 1e-6

    def test_dominates_sharp_classical_exponent(self):
        # degenerate unit band: the exponent must dominate the sharp
        # Ornstein-Uhlenbeck exponent p e^{-2KT} d^2 / ((p-1)(1-e^{-2KT})),
        # otherwise the inequality fails classically (e.g. p=4, T=0.5)
        band = VolatilityBand(1.0, 1.0)
        for p in (1.5, 2.0, 4.0, 8.0):
            for T in (0.25, 0.5, 1.0, 2.0):
                val = harnack_exponent(p, 1.0, band, T, 1.0)
                sharp = p * math.exp(-2 * T) / ((p - 1) * (1 - math.exp(-2 * T)))
                assert val >= sharp, (p, T)

    @pytest.mark.parametrize("dist", [1e200, 1e154], ids=["square", "product"])
    def test_overflow_rejected(self, dist):
        # 1e200**2 raised OverflowError; 1e154 squares to a float but the
        # exponent is +inf
        with pytest.raises(ValueError, match="the harnack exponent overflows a float"):
            harnack_exponent(2.0, 1.0, VolatilityBand(0.5, 1.0), 1.0, dist)
        with pytest.raises(ValueError, match="the shift-harnack exponent overflows a float"):
            shift_harnack_exponent(2.0, 1.0, 0.5, 1.0, dist)
        with pytest.raises(ValueError, match="the Novikov exponent overflows a float"):
            novikov_pathwise_bound(1.0, VolatilityBand(0.5, 1.0), 1.0, dist)

    def test_nan_distance_rejected(self):
        # _finite rejects only +inf, so a NaN distance gave a NaN exponent
        with pytest.raises(ValueError, match="the distance is NaN"):
            harnack_exponent(2.0, 1.0, VolatilityBand(0.5, 1.0), 1.0, math.nan)

    def test_nan_shift_rejected(self):
        with pytest.raises(ValueError, match="the shift is NaN"):
            shift_harnack_exponent(2.0, 1.0, 0.5, 1.0, math.nan)

    def test_validation(self):
        band = VolatilityBand(1.0, 1.0)
        # a NaN p or K failed no comparison and gave a NaN exponent
        for bad in ({"p": 1.0}, {"K": 0.0}, {"horizon": 0.0}, {"p": math.nan}, {"K": math.nan}):
            kwargs = {"p": 2.0, "K": 1.0, "horizon": 1.0, **bad}
            with pytest.raises(ValueError):
                harnack_exponent(kwargs["p"], kwargs["K"], band, kwargs["horizon"], 1.0)
        # 1 - e^{-2 slo^2 K T} rounds to 0 on the band (0.5, 1): the exponent
        # read 0 at 1e-16 and divided by 0 at 1e-17
        for horizon in (1e-16, 1e-17):
            with pytest.raises(ValueError, match=f"the horizon {horizon:g} is too short"):
                harnack_exponent(2.0, 1.0, VolatilityBand(0.5, 1.0), horizon, 1.0)
        # one horizon rule for the closed forms; an infinite horizon read a
        # finite harnack exponent and Novikov ceiling
        for horizon in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match=f"finite and positive, got {horizon}"):
                harnack_exponent(2.0, 1.0, band, horizon, 1.0)
            with pytest.raises(ValueError, match=f"finite and positive, got {horizon}"):
                novikov_pathwise_bound(1.0, band, horizon, 1.0)
            with pytest.raises(ValueError, match=f"finite and positive, got {horizon}"):
                shift_harnack_exponent(2.0, 1.0, 1.0, horizon, 1.0)

    @given(
        p=st.floats(1.1, 8.0),
        k=st.floats(0.1, 3.0),
        t=st.floats(0.1, 5.0),
        d=st.floats(0.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_quadratic_in_distance(self, p, k, t, d):
        band = VolatilityBand(0.5, 1.0)
        val = harnack_exponent(p, k, band, t, d)
        assert val >= 0.0
        # depends on the points only through the squared distance
        assert harnack_exponent(p, k, band, t, -d if d else d) == val
        doubled = harnack_exponent(p, k, band, t, 2 * d)
        assert doubled == pytest.approx(4 * val, rel=1e-12, abs=1e-300)


class TestShiftHarnackExponent:
    def test_reference_value_seven_thirds(self):
        oracle = float(mpmath.mpf(7) / 3)
        val = shift_harnack_exponent(2.0, 1.0, 1.0, 1.0, 1.0)
        assert abs(val - oracle) < 1e-12

    def test_zero_shift(self):
        assert shift_harnack_exponent(2.0, 1.0, 1.0, 1.0, 0.0) == 0.0

    def test_k_zero_leaves_inverse_horizon_term(self):
        assert shift_harnack_exponent(2.0, 0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            shift_harnack_exponent(1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            shift_harnack_exponent(2.0, -0.5, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            shift_harnack_exponent(2.0, 1.0, 0.0, 1.0, 1.0)
        # a NaN p, K or sigma_lo failed no comparison and gave a NaN exponent
        for args in ((math.nan, 1.0, 1.0), (2.0, math.nan, 1.0), (2.0, 1.0, math.nan)):
            with pytest.raises(ValueError):
                shift_harnack_exponent(*args, 1.0, 1.0)


class TestVerifyHarnack:
    def test_same_point_jensen(self, band_wide, ou_spec):
        cert = verify_harnack(
            ou_spec, catalog()["sigmoid"], 0.5, 0.5, 2.0, 1.0, band_wide
        )
        assert cert.passed and cert.exponent == 0.0

    def test_constant_payoff(self, band_wide, ou_spec):
        cert = verify_harnack(ou_spec, catalog()["one"], 0.0, 1.0, 2.0, 1.0, band_wide)
        assert cert.passed
        assert cert.lhs == pytest.approx(1.0, abs=1e-12)
        assert cert.rhs == pytest.approx(math.exp(cert.exponent), rel=1e-12)

    def test_classical_ou_certificate_with_quadrature_oracle(self, band_classical, ou_spec):
        # degenerate band: both sides reduce to the classical OU semigroup
        p, x, y = 2.0, 0.0, 0.5
        cert = verify_harnack(
            ou_spec, catalog()["sigmoid"], x, y, p, 1.0, band_classical
        )
        assert cert.passed
        var = (1.0 - math.exp(-2.0)) / 2.0
        lhs_oracle = normal_expectation(
            catalog()["sigmoid"], y * math.exp(-1.0), var, 64
        ) ** p
        rhs_base = normal_expectation(
            catalog()["sigmoid"].power(p), x * math.exp(-1.0), var, 64
        )
        assert cert.lhs == pytest.approx(lhs_oracle, rel=1e-3)
        assert cert.rhs == pytest.approx(rhs_base * math.exp(cert.exponent), rel=1e-3)

    def test_requires_nonnegative_payoff(self, band_wide, ou_spec, monkeypatch):
        # TestFunction.power holds the rule, and it raises before the solve
        from gexp import TestFunction, harnack

        def no_solve(*args):
            raise AssertionError("the solve ran before the positivity check")

        monkeypatch.setattr(harnack, "solve_batch", no_solve)
        neg = TestFunction("neg", lambda x: -np.ones_like(x), positivity=False)
        time_spec = dataclasses.replace(ou_spec, kind=Kind.TIME_DRIVEN)
        with pytest.raises(ValueError, match="nonnegative payoffs"):
            verify_harnack(ou_spec, neg, 0.0, 1.0, 2.0, 1.0, band_wide)
        with pytest.raises(ValueError, match="nonnegative payoffs"):
            verify_shift_harnack(time_spec, neg, 0.0, 0.5, 2.0, 1.0, band_wide)

    def test_requires_qv_kind(self, band_wide, ou_spec):
        time_spec = dataclasses.replace(ou_spec, kind=Kind.TIME_DRIVEN)
        with pytest.raises(ValueError):
            verify_harnack(time_spec, catalog()["sigmoid"], 0.0, 1.0, 2.0, 1.0, band_wide)

    def test_overflowing_exponent_rejected(self, band_wide, ou_spec):
        # y = 4 is inside the safe window, but e^1077.8 is not a float
        with pytest.raises(ValueError, match="harnack exponent 1077.8"):
            verify_harnack(ou_spec, catalog()["sigmoid"], 0.0, 4.0, 2.0, 1.0, band_wide)


class TestVerifyShiftHarnack:
    def test_zero_shift_jensen(self, band_wide, ou_spec):
        spec = dataclasses.replace(ou_spec, kind=Kind.TIME_DRIVEN)
        cert = verify_shift_harnack(
            spec, catalog()["sigmoid"], 0.0, 0.0, 2.0, 1.0, band_wide
        )
        assert cert.passed and cert.exponent == 0.0

    def test_constant_payoff(self, band_wide, ou_spec):
        spec = dataclasses.replace(ou_spec, kind=Kind.TIME_DRIVEN)
        cert = verify_shift_harnack(
            spec, catalog()["one"], 0.0, 0.5, 2.0, 1.0, band_wide
        )
        assert cert.passed and cert.lhs == pytest.approx(1.0, abs=1e-12)

    def test_classical_brownian_oracle(self, band_classical):
        # driftless time-driven equation with unit band: X_T ~ N(x, T)
        spec = dataclasses.replace(make_drift("zero"), kind=Kind.TIME_DRIVEN)
        p, v, x = 2.0, 0.5, 0.0
        cert = verify_shift_harnack(
            spec, catalog()["bump"], x, v, p, 1.0, band_classical
        )
        assert cert.passed
        lhs_oracle = normal_expectation(catalog()["bump"], x, 1.0, 64) ** p
        rhs_base = normal_expectation(catalog()["bump"].power(p).shifted(v), x, 1.0, 64)
        assert cert.lhs == pytest.approx(lhs_oracle, rel=1e-3)
        assert cert.rhs == pytest.approx(rhs_base * math.exp(cert.exponent), rel=1e-3)

    def test_requires_time_kind(self, band_wide, ou_spec):
        with pytest.raises(ValueError):
            verify_shift_harnack(
                ou_spec, catalog()["sigmoid"], 0.0, 0.5, 2.0, 1.0, band_wide
            )


class TestCertificateGrids:
    def test_every_factor_before_the_solve(self, band_wide, monkeypatch):
        # e^exponent overflows at these points: the error comes before the
        # stacked solve, not after it
        from gexp import harnack

        def no_solve(*args):
            raise AssertionError("the solve ran before the factors")

        monkeypatch.setattr(harnack, "solve_batch", no_solve)
        ou, f = make_drift("ou"), catalog()["sigmoid"]
        calls = [
            (lambda: verify_harnack(ou, f, 0.0, 4.0, 2.0, 1.0, band_wide), "harnack", "1077.8"),
            (lambda: harnack_grid(ou, [f], [2.0], [1.0], [band_wide], [0.0, 4.0]),
             "harnack", "1077.8"),
            (lambda: shift_harnack_grid(ou, [f], [2.0], [1.0], [band_wide], [0.0, 9.0]),
             "shift-harnack", "756 "),
        ]
        for call, name, expo in calls:
            with pytest.raises(ValueError, match=f"exp of the {name} exponent {expo}"):
                call()

    def test_one_stack_per_band_and_horizon(self, band_wide, monkeypatch):
        # payoff by payoff, f and then its base rows for each p, one per point:
        # f^p for Harnack, f^p(v + .) for the shift inequality, even for
        # shifts whose ids coincide; the march holds each distinct row once
        from gexp import gheat, harnack

        stacks, heights = [], []
        solve, aligned = harnack.solve_batch, gheat._aligned

        def spy(rows, *args):
            stacks.append([g.id for g in rows])
            return solve(rows, *args)

        def aligned_spy(n, lead=0):  # gheat._aligned, noting the height of each work buffer
            heights.append(n // gheat.Grid1D().nx)
            return aligned(n, lead)

        monkeypatch.setattr(harnack, "solve_batch", spy)
        monkeypatch.setattr(gheat, "_aligned", aligned_spy)
        ou, fs, ps = make_drift("ou"), [catalog()["sigmoid"], catalog()["bump"]], [2.0, 4.0]
        points = np.linspace(0.0, 1.0, 6)
        harnack_grid(ou, fs, ps, [0.5, 1.0], [band_wide], points)
        stack = [
            row for f in ("sigmoid", "bump") for row in [f, *[f"{f}^2"] * 6, *[f"{f}^4"] * 6]
        ]
        assert stacks == 2 * [stack]
        assert heights and set(heights) == {6}
        stacks.clear()
        shift_harnack_grid(ou, fs, ps, [0.5, 1.0], [band_wide], points)
        stack = [
            row
            for f in ("sigmoid", "bump")
            for row in [f, *(f"{f}^{p:g}(+{v:g})" for p in ps for v in points)]
        ]
        assert stacks == 2 * [stack]
        stacks.clear()
        certs = shift_harnack_grid(ou, fs[:1], [2.0], [1.0], [band_wide], [0.1, 0.1000001])
        assert stacks == [["sigmoid", "sigmoid^2(+0.1)", "sigmoid^2(+0.1)"]]
        assert certs[0].rhs != certs[1].rhs

    def test_small_harnack_sweep_no_failures(self, band_wide):
        certs = harnack_grid(
            make_drift("ou"),
            [catalog()["sigmoid"]],
            ps=[2.0],
            horizons=[1.0],
            bands=[band_wide],
            dists=np.linspace(0.0, 1.0, 5),
        )
        assert len(certs) == 5
        assert all(c.passed for c in certs)
        # exponent symmetry in the distance
        by_d = {round(abs(c.y_or_shift - c.x), 6): c.exponent for c in certs}
        assert by_d[0.0] == 0.0

    @pytest.mark.parametrize(
        "x0, dists", [(-5.0, np.linspace(0.0, 1.0, 6)), (-2.0, [-3.0, 0.0]), (3.5, [0.0, 1.0])]
    )
    def test_harnack_sweep_checks_every_point(self, band_wide, x0, dists):
        # the safe window of this band and horizon on the default grid is
        # [-4, 4]; x0 or some x0 + d lies outside it, though x0 + max(d) may not
        with pytest.raises(ValueError, match="boundary-contaminated"):
            harnack_grid(
                make_drift("ou"), [catalog()["sigmoid"]], ps=[2.0], horizons=[1.0],
                bands=[band_wide], dists=dists, x0=x0,
            )

    def test_small_shift_sweep_no_failures(self, band_wide):
        certs = shift_harnack_grid(
            make_drift("ou"),
            [catalog()["bump"]],
            ps=[2.0],
            horizons=[1.0],
            bands=[band_wide],
            shifts=np.linspace(0.0, 1.0, 5),
        )
        assert len(certs) == 5
        assert all(c.passed for c in certs)

    def test_theorem_power_harnack_integrated_form(self):
        # normalized-payoff form on the classical OU fixture:
        # sup_{E0[f^a] <= 1} (max_th P_th f(x))^a <= 1 / E0[exp(-Psi(x, .))]
        from gexp.kernels import classical_ou_harnack_exponent, ou_semigroup

        alpha, x = 2.0, 0.7
        thetas = (0.5, 1.0)
        for pid in ("sigmoid", "cauchy", "bump"):
            f = catalog()[pid]
            norm = normal_expectation(f.power(alpha), 0.0, 1.0, 256) ** (1 / alpha)
            scaled = f.scaled(1.0 / norm)
            lhs = max(ou_semigroup(th, scaled, x) for th in thetas) ** alpha
            rhs_denom = normal_expectation(
                lambda ys: np.exp(
                    -np.array(
                        [
                            max(
                                classical_ou_harnack_exponent(alpha, th, abs(x - y))
                                for th in thetas
                            )
                            for y in np.atleast_1d(ys)
                        ]
                    )
                ),
                0.0,
                1.0,
                256,
            )
            assert lhs <= 1.0 / rhs_denom + 1e-9, pid
