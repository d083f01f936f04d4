import math

import numpy as np
import pytest

from gexp import (
    TestFunction,
    catalog,
    classical_ou_harnack_exponent,
    dominance_check,
    ex38_probe,
    kernel_lower_bound_check,
    member_invariance_gap,
    normal_expectation,
    ou_kernel,
    ou_semigroup,
    quasi_invariance_check,
    run_kernel_suite,
    sup_kernel_ex34,
)
from gexp.kernels import _hermgauss, sup_kernel_definition_margin


class TestQuadrature:
    def test_normal_moments(self):
        assert normal_expectation(lambda z: z, 0.3, 2.0, 64) == pytest.approx(0.3, abs=1e-12)
        assert normal_expectation(lambda z: z**2, 0.0, 2.0, 64) == pytest.approx(2.0, abs=1e-10)

    def test_ou_semigroup_constant(self):
        assert ou_semigroup(0.5, catalog()["one"], 1.3) == pytest.approx(1.0, abs=1e-12)

    def test_ou_semigroup_second_moment(self):
        # clipped x^2 at the origin, theta = 1/2: variance 1 - e^{-1}
        val = ou_semigroup(0.5, catalog()["sqclip"], 0.0)
        assert val == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            ou_semigroup(0.2, catalog()["one"], 0.0)


class TestHermiteRule:
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 65])
    def test_exact_through_degree_2n_minus_1(self, n):
        # sum w t^{2k} = Gamma(k + 1/2) for every 2k <= 2n - 1, that is
        # k <= n - 1; the odd moments vanish
        t, w = _hermgauss(n)
        for k in range(n):
            assert float(w @ t ** (2 * k)) == pytest.approx(math.gamma(k + 0.5), rel=1e-13), k
            odd = float(w @ t ** (2 * k + 1))
            assert abs(odd) <= 1e-15 * float(w @ np.abs(t) ** (2 * k + 1)), k

    @pytest.mark.parametrize("order", [64, 128, 256, 512, 1024])
    def test_orders_in_use_are_sound(self, order):
        # numpy's companion-matrix hermgauss gives non-finite weights at
        # 512 and 1024
        t, w = _hermgauss(order)
        assert t.shape == w.shape == (order,)
        assert np.all(np.diff(t) > 0)  # Newton found each root once
        np.testing.assert_array_equal(t, -t[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        assert float(w.sum()) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("order", [64, 1024])
    def test_nodes_and_weights_match_mpmath(self, order):
        import mpmath

        t, w = _hermgauss(order)
        last = int(np.flatnonzero(w > 1e-280)[-1])
        with mpmath.workdps(40):
            for i in (order // 2, 3 * order // 4, last):
                root = mpmath.mpf(float(t[i]))
                for _ in range(6):  # Newton on H_n, with H_n' = 2n H_{n-1}
                    root -= mpmath.hermite(order, root) / (
                        2 * order * mpmath.hermite(order - 1, root)
                    )
                weight = (
                    2 ** (order - 1) * mpmath.factorial(order) * mpmath.sqrt(mpmath.pi)
                    / (order**2 * mpmath.hermite(order - 1, root) ** 2)
                )
                assert abs(float(root) - t[i]) <= 1e-14 * max(1.0, abs(t[i])), i
                assert float(weight) == pytest.approx(w[i], rel=1e-12), i

    def test_array_ou_semigroup_matches_pointwise(self):
        xs = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        for pid in ("sigmoid", "sqclip"):
            f = catalog()[pid]
            vals = ou_semigroup(0.5, f, xs)
            assert vals.shape == xs.shape
            for x, v in zip(xs.ravel(), vals.ravel()):
                point = ou_semigroup(0.5, f, float(x))
                assert isinstance(point, float)
                assert v == pytest.approx(point, rel=0, abs=1e-14), (pid, x)


class TestSupKernel:
    def test_origin_value(self):
        assert sup_kernel_ex34(0.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(1.0 - math.exp(-1.0)), rel=1e-12
        )

    def test_gaussian_growth_ratio(self):
        assert sup_kernel_ex34(0.3, 2.0) / sup_kernel_ex34(-1.0, 0.0) == pytest.approx(
            math.exp(2.0), rel=1e-12
        )

    def test_dominance_zero_violations_both_modes(self):
        res = dominance_check()
        assert res["violations"] == 0
        assert res["worst_excess"] <= 0.0 or res["worst_excess"] < 1e-12


class TestInvariance:
    def test_quasi_invariance_constant_payoff(self):
        # E0[max P_theta 1] - 2 E0[1] = 1 - 2 = -1
        gap = quasi_invariance_check(catalog()["one"])
        assert gap == pytest.approx(-1.0, abs=1e-10)

    def test_quasi_invariance_all_payoffs_nonpositive(self):
        for pid, f in catalog().items():
            assert quasi_invariance_check(f) <= 1e-6, pid

    def test_quasi_invariance_requires_a_nonnegative_payoff(self):
        signed = TestFunction("signed", np.tanh, positivity=False)
        with pytest.raises(ValueError, match="requires a nonnegative payoff"):
            quasi_invariance_check(signed)

    def test_member_invariance_tight(self):
        for pid, f in catalog().items():
            for th in (0.5, 1.0):
                assert abs(member_invariance_gap(th, f)) <= 1e-8, (pid, th)

    def test_sup_kernel_definition_margins_nonnegative(self):
        for pid, f in catalog().items():
            for x in (-2.0, 0.0, 2.0):
                assert sup_kernel_definition_margin(f, x) >= -1e-9, (pid, x)


class TestLowerBound:
    def test_classical_exponent_formula(self):
        # alpha e^{-2 theta} d^2 / (2 (alpha-1)(1 - e^{-2 theta}))
        val = classical_ou_harnack_exponent(2.0, 0.5, 1.0)
        expected = 2.0 * math.exp(-1.0) / (2.0 * (1.0 - math.exp(-1.0)))
        assert val == pytest.approx(expected, rel=1e-12)
        assert classical_ou_harnack_exponent(2.0, 1.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            classical_ou_harnack_exponent(1.0, 0.5, 1.0)

    def test_alpha_rejected_before_any_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a quadrature ran before the alpha check")

        monkeypatch.setattr(np, "trapezoid", no_quadrature)
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            kernel_lower_bound_check(0.0, 1.0, 1.0)
        # the suite holds no alpha rule of its own: its lower-bound margins
        # come before any Gauss-Hermite or Gauss-Kronrod quadrature
        from gexp import kernels

        monkeypatch.setattr(kernels, "normal_expectation", no_quadrature)
        monkeypatch.setattr(kernels, "_gauss_kronrod", no_quadrature)
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            run_kernel_suite(alpha=1.0)

    def test_margin_nonnegative_on_acceptance_points(self):
        for x in (-1.0, 0.0, 1.0):
            for y in (-1.0, 0.0, 1.0):
                assert kernel_lower_bound_check(x, y, 2.0) >= 0.0, (x, y)


class TestEx38Probe:
    def test_sum_dominates_members(self):
        rep = ex38_probe()
        assert rep.sum_dominance_violations == 0

    def test_printed_bound_fails_at_origin_closed_form(self):
        rep = ex38_probe()
        v1, v2 = 1.0 - math.exp(-1.0), 1.0 - math.exp(-2.0)
        lhs = 1.0 / math.sqrt(2.0 * math.pi * v1) + 1.0 / math.sqrt(2.0 * math.pi * v2)
        rhs = 1.0 / math.sqrt(2.0 * math.pi * v1)
        assert rep.origin_lhs == pytest.approx(lhs, abs=1e-12)
        assert rep.origin_rhs == pytest.approx(rhs, abs=1e-12)
        assert rep.origin_lhs > rep.origin_rhs  # the printed inequality fails
        assert rep.printed_violations > 0

    def test_probe_deterministic(self):
        a, b = ex38_probe(), ex38_probe()
        assert a.printed_violations == b.printed_violations
        assert a.printed_violation_rows == b.printed_violation_rows

    def test_violations_contains_origin_row(self):
        xs = np.array([0.0])
        ys = np.array([0.0])
        rep = ex38_probe(xs, ys)
        assert rep.printed_violations == 1
        (x, y, lhs, rhs) = rep.printed_violation_rows[0]
        assert (x, y) == (0.0, 0.0)
        assert lhs == pytest.approx(rep.origin_lhs, abs=1e-12)
        assert rhs == pytest.approx(rep.origin_rhs, abs=1e-12)


class TestKernelSuiteReport:
    def test_full_suite(self):
        rep = run_kernel_suite(alpha=2.0)
        assert rep.dominance["violations"] == 0
        assert all(g <= 1e-6 for g in rep.quasi_invariance_gaps.values())
        assert all(abs(g) <= 1e-8 for g in rep.member_invariance_gaps.values())
        assert all(m >= 0.0 for m in rep.lower_bound_margins.values())
        assert all(m >= -1e-9 for m in rep.sup_kernel_margins.values())
        assert rep.ex38.sum_dominance_violations == 0
        d = rep.to_dict()
        assert d["truncation_radius"] == 8.0


class TestGouStationarity:
    def test_worst_case_ou_value_becomes_time_stationary(self, band_wide):
        # time-driven OU drift: successive unit-time increments of the
        # worst-case value shrink and the long-run profile flattens
        import dataclasses

        from gexp import Grid1D, Kind, make_drift, solve
        from gexp.gheat import safe_window

        spec = dataclasses.replace(make_drift("ou"), kind=Kind.TIME_DRIVEN)
        grid = Grid1D(-16.0, 16.0, 641)  # keep a nonempty window at T = 4
        f = catalog()["sigmoid"]
        sols = {t: solve(f, band_wide, float(t), grid, spec) for t in (1, 2, 3, 4)}
        lo, hi = safe_window(grid, band_wide, 4.0)
        mask = (grid.xs >= lo) & (grid.xs <= hi)
        d12 = np.max(np.abs(sols[2].values - sols[1].values)[mask])
        d23 = np.max(np.abs(sols[3].values - sols[2].values)[mask])
        d34 = np.max(np.abs(sols[4].values - sols[3].values)[mask])
        assert d23 < d12 and d34 < d23
        profile = sols[4].values[mask]
        assert np.max(profile) - np.min(profile) < 0.05
