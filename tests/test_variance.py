"""Averaged-estimator error: closed form, recursion, Monte Carlo, reports."""

from __future__ import annotations

import json
import math

import pytest

from tsgdm import (
    CONVENTION_NOTE,
    DomainError,
    EmaModel,
    ema_mse_recursive,
    ema_mse_theory,
    simulate_ema,
    substream,
    variance_report,
    write_report,
)
from tsgdm.rng import STREAM_VARIANCE

ALPHAS = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0]
HORIZONS = [0, 1, 2, 3, 5, 8, 13, 50]


def model(alpha, horizon, sigma=1.0, mu=0.0):
    return EmaModel(mu=mu, sigma=sigma, alpha=alpha, horizon=horizon)


class TestClosedForm:
    def test_alpha_one_is_fresh_sample_error(self):
        for horizon in HORIZONS:
            assert ema_mse_theory(model(1.0, horizon)) == pytest.approx(1.0, abs=1e-12)

    def test_horizon_zero_is_fresh_sample_error(self):
        for alpha in ALPHAS:
            assert ema_mse_theory(model(alpha, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_spot_value(self):
        assert ema_mse_theory(model(0.5, 10)) == pytest.approx(0.333334, abs=1e-6)

    def test_matches_recursion_on_grid(self):
        for alpha in ALPHAS:
            for horizon in HORIZONS:
                m = model(alpha, horizon)
                assert abs(ema_mse_theory(m) - ema_mse_recursive(m)) <= 1e-12

    def test_sigma_scales_quadratically(self):
        assert ema_mse_theory(model(0.3, 7, sigma=2.0)) == pytest.approx(
            4.0 * ema_mse_theory(model(0.3, 7, sigma=1.0)), rel=1e-12
        )

    def test_decreases_with_horizon(self):
        for alpha in (0.1, 0.5, 0.9):
            values = [ema_mse_theory(model(alpha, t)) for t in range(12)]
            assert all(later <= earlier for earlier, later in zip(values, values[1:]))
            early = values[:6]
            assert all(later < earlier for earlier, later in zip(early, early[1:]))

    def test_converges_to_floor(self):
        floor = 0.5 / (2.0 - 0.5)
        assert abs(ema_mse_theory(model(0.5, 50)) - floor) < 1e-29

    def test_strictly_below_baseline_after_one_step(self):
        for alpha in ALPHAS[:-1]:
            for horizon in (1, 2, 5, 10, 50):
                assert ema_mse_theory(model(alpha, horizon)) < 1.0

    def test_model_validation(self):
        with pytest.raises(DomainError):
            EmaModel(mu=0.0, sigma=0.0, alpha=0.5, horizon=1)
        with pytest.raises(DomainError):
            EmaModel(mu=0.0, sigma=-1.0, alpha=0.5, horizon=1)
        with pytest.raises(DomainError):
            EmaModel(mu=0.0, sigma=1.0, alpha=0.0, horizon=1)
        with pytest.raises(DomainError):
            EmaModel(mu=0.0, sigma=1.0, alpha=1.5, horizon=1)
        with pytest.raises(DomainError):
            EmaModel(mu=0.0, sigma=1.0, alpha=0.5, horizon=-1)
        degenerate = EmaModel(
            mu=0.0, sigma=0.0, alpha=0.5, horizon=1, allow_degenerate_sigma=True
        )
        assert ema_mse_theory(degenerate) == 0.0
        for sigma in (math.nan, math.inf):
            for allow in (False, True):
                with pytest.raises(DomainError, match="sigma must be finite"):
                    EmaModel(mu=0.0, sigma=sigma, alpha=0.5, horizon=1, allow_degenerate_sigma=allow)


class TestSimulation:
    def test_trials_validation(self):
        with pytest.raises(DomainError):
            simulate_ema(model(0.5, 1), 0, substream(0, STREAM_VARIANCE))

    def test_a_single_trial_is_refused(self):
        """One trial has no standard error, so every cell would be flagged."""
        with pytest.raises(DomainError, match="trials must be >= 2, got 1"):
            simulate_ema(model(0.5, 3), 1, substream(0, STREAM_VARIANCE))

    def test_degenerate_sigma_gives_exact_zero(self):
        m = EmaModel(mu=2.0, sigma=0.0, alpha=0.5, horizon=4, allow_degenerate_sigma=True)
        mse, std_error = simulate_ema(m, 100, substream(0, STREAM_VARIANCE))
        assert mse == 0.0
        assert std_error == 0.0

    def test_matches_theory_within_standard_error(self):
        for alpha, horizon in ((0.5, 5), (0.2, 10), (1.0, 3)):
            m = model(alpha, horizon, mu=3.0)
            mse, std_error = simulate_ema(m, 20000, substream(7, STREAM_VARIANCE))
            assert abs(mse - ema_mse_theory(m)) <= 4.0 * std_error

    def test_deterministic_given_stream(self):
        first = simulate_ema(model(0.5, 5), 500, substream(1, STREAM_VARIANCE))
        second = simulate_ema(model(0.5, 5), 500, substream(1, STREAM_VARIANCE))
        assert first == second


class TestReportGrid:
    def test_layout_is_alpha_major(self):
        cells = variance_report([0.3, 0.7], [1, 2, 5], 1.0, 200, substream(0, STREAM_VARIANCE))
        assert [(c.alpha, c.horizon) for c in cells] == [
            (0.3, 1),
            (0.3, 2),
            (0.3, 5),
            (0.7, 1),
            (0.7, 2),
            (0.7, 5),
        ]
        assert all(c.baseline_mse == 1.0 for c in cells)

    def test_no_flags_at_reasonable_trial_count(self):
        cells = variance_report(
            [0.1, 0.5, 0.9], [1, 5, 20], 1.0, 5000, substream(3, STREAM_VARIANCE)
        )
        assert not any(c.flagged for c in cells)

    def test_empty_axes_rejected(self):
        with pytest.raises(DomainError):
            variance_report([], [1], 1.0, 100, substream(0, STREAM_VARIANCE))
        with pytest.raises(DomainError):
            variance_report([0.5], [], 1.0, 100, substream(0, STREAM_VARIANCE))

    def test_deterministic_given_stream(self):
        first = variance_report([0.5], [3], 1.0, 300, substream(2, STREAM_VARIANCE))
        second = variance_report([0.5], [3], 1.0, 300, substream(2, STREAM_VARIANCE))
        assert first == second

    def test_leading_cell_unperturbed_by_grid_shape(self):
        small = variance_report([0.5], [3], 1.0, 300, substream(2, STREAM_VARIANCE))
        large = variance_report([0.5, 0.9], [3, 7], 1.0, 300, substream(2, STREAM_VARIANCE))
        assert small[0] == large[0]


class TestWriteReport:
    def test_files_and_summary(self, tmp_path):
        cells = variance_report([0.5, 0.9], [1, 5], 1.0, 2000, substream(5, STREAM_VARIANCE))
        table_path, summary_path = write_report(cells, tmp_path / "out")
        table = table_path.read_text(encoding="utf-8").splitlines()
        assert table[0] == "alpha,horizon,theory_mse,empirical_mse,std_error,baseline_mse,flagged"
        assert len(table) == 1 + len(cells)
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        assert summary["convention"] == CONVENTION_NOTE
        assert summary["cells"] == 4
        assert summary["flagged_cells"] == 0
        assert summary["all_below_baseline"] is True
        assert summary["max_abs_z"] <= 4.0
        assert len(summary["grid"]) == 4

    def test_bytes_are_stable(self, tmp_path):
        cells = variance_report([0.5], [2], 1.0, 500, substream(5, STREAM_VARIANCE))
        first = write_report(cells, tmp_path / "a")
        second = write_report(cells, tmp_path / "b")
        for path_a, path_b in zip(first, second):
            assert path_a.read_bytes() == path_b.read_bytes()
