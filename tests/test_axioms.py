import pytest

from gexp import McConfig, VolatilityBand, make_drift, run_axioms


@pytest.fixture(scope="module")
def result():
    return run_axioms(
        make_drift("ou"), VolatilityBand(0.5, 1.0), mc=McConfig(2000, 64, 19)
    )


class TestAxiomSuite:
    def test_all_pass(self, result):
        failing = [c for c in result["checks"] if not c["pass"]]
        assert result["all_pass"] and not failing, failing

    def test_covers_both_backends_and_all_axioms(self, result):
        names = {c["check"] for c in result["checks"]}
        for backend in ("pde", "mc"):
            assert any(n.startswith(f"{backend}:monotone") for n in names)
            assert f"{backend}:constant" in names
            assert any(n.startswith(f"{backend}:subadd") for n in names)
            assert any(n.startswith(f"{backend}:homogeneous") for n in names)

    def test_mc_checks_are_exact(self, result):
        for c in result["checks"]:
            if c["check"].startswith("mc:"):
                assert c["limit"] <= 1e-11


def test_empty_safe_window_rejected_before_any_solve(monkeypatch):
    # at T = 3 the default grid's window [-10 + 6 sqrt(3), 10 - 6 sqrt(3)] is empty
    from gexp import axioms

    monkeypatch.setattr(axioms, "solve_batch", None)  # never reached
    message = r"\[0\.392305, -0\.392305\] of the grid \[-10, 10\] is empty at horizon 3"
    with pytest.raises(ValueError, match=message):
        run_axioms(make_drift("ou"), VolatilityBand(0.5, 1.0), 3.0, mc=McConfig(2000, 64, 19))
