"""Scalar averaging lab.

Models a noisy estimator of a constant: fresh samples are mu plus Gaussian
noise, and the averaged process blends each fresh sample into a running
value, y_t = alpha * sample_t + (1 - alpha) * y_{t-1}, started from a fresh
sample. The closed form for the mean squared error of y_t and a Monte Carlo
check of it live side by side.

Convention note: here alpha is the weight on the NEWEST sample, so small
alpha means heavy averaging. The prompt optimizer's mixture weights use the
opposite convention (alpha discounts OLDER entries, so alpha=0 means no
averaging there). The two knobs are unrelated; reports repeat this warning.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .errors import DomainError
from .rng import RandomStream

CONVENTION_NOTE = (
    "alpha here weights the newest sample of the averaged estimator "
    "(y_t = alpha * sample + (1 - alpha) * y_prev); it is unrelated to the "
    "optimizer's mixture alpha, which discounts older instructions."
)


@dataclass(frozen=True)
class EmaModel:
    """Noisy scalar estimator: samples are mu + sigma * N(0, 1); the averaged
    process blends them with weight alpha on the newest sample over a fixed
    horizon of steps after the initial sample."""

    mu: float
    sigma: float
    alpha: float
    horizon: int
    allow_degenerate_sigma: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma) or self.sigma < 0.0 or (self.sigma == 0.0 and not self.allow_degenerate_sigma):
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.horizon < 0:
            raise DomainError(f"horizon must be >= 0, got {self.horizon}")


def ema_mse_theory(model: EmaModel) -> float:
    """Closed-form mean squared error of the averaged estimator at the
    horizon: sigma^2 * (alpha / (2 - alpha) + 2 / (2 - alpha) * (1 - alpha)^(2t + 1)).

    At horizon 0 and at alpha=1 this equals the fresh-sample error sigma^2;
    for alpha in (0, 1) it decays monotonically toward the floor
    sigma^2 * alpha / (2 - alpha).
    """
    a = model.alpha
    t = model.horizon
    return model.sigma**2 * (a / (2.0 - a) + 2.0 / (2.0 - a) * (1.0 - a) ** (2 * t + 1))


def ema_mse_recursive(model: EmaModel) -> float:
    """Same quantity by the finite variance sum: (1 - a)^(2t) * sigma^2 plus
    a^2 * sum_{k=1..t} (1 - a)^(2(t - k)) * sigma^2. Exists as an independent
    cross-check of the closed form."""
    a = model.alpha
    t = model.horizon
    total = (1.0 - a) ** (2 * t) * model.sigma**2
    for k in range(1, t + 1):
        total += a**2 * (1.0 - a) ** (2 * (t - k)) * model.sigma**2
    return total


def simulate_ema(model: EmaModel, trials: int, rng: RandomStream) -> tuple[float, float]:
    """Monte Carlo estimate of the averaged estimator's mean squared error at
    the horizon, plus the standard error of that estimate.

    Draws one vector of standard normals per step so memory stays linear in
    trials, not trials * horizon. The standard error needs at least 2 trials.
    """
    if trials < 2:
        raise DomainError(f"trials must be >= 2, got {trials}")
    a = model.alpha
    y = model.mu + model.sigma * rng.standard_normal(trials)
    for _ in range(model.horizon):
        sample = model.mu + model.sigma * rng.standard_normal(trials)
        y = a * sample + (1.0 - a) * y
    squared = (y - model.mu) ** 2
    return float(squared.mean()), float(squared.std(ddof=1) / math.sqrt(trials))


@dataclass(frozen=True)
class VarianceCell:
    """One grid cell of the report; ``flagged`` marks a cell whose empirical
    error falls outside 4 standard errors of theory."""

    alpha: float
    horizon: int
    theory_mse: float
    empirical_mse: float
    std_error: float
    baseline_mse: float
    flagged: bool

    def to_dict(self) -> dict:
        return asdict(self)


def variance_report(
    alphas: Sequence[float],
    horizons: Sequence[int],
    sigma: float,
    trials: int,
    rng: RandomStream,
) -> list[VarianceCell]:
    """Theory vs Monte Carlo over the full (alpha, horizon) cross product.

    Every cell simulates on its own substream so the grid shape never
    perturbs individual cells. The baseline column is the fresh-sample error
    sigma^2 the averaging is supposed to beat.
    """
    if not alphas or not horizons:
        raise DomainError("alphas and horizons must be nonempty")
    streams = rng.spawn(len(alphas) * len(horizons))
    cells = []
    position = 0
    for alpha in alphas:
        for horizon in horizons:
            model = EmaModel(mu=0.0, sigma=sigma, alpha=alpha, horizon=horizon)
            theory = ema_mse_theory(model)
            empirical, std_error = simulate_ema(model, trials, streams[position])
            position += 1
            cells.append(
                VarianceCell(
                    alpha=float(alpha),
                    horizon=int(horizon),
                    theory_mse=theory,
                    empirical_mse=empirical,
                    std_error=std_error,
                    baseline_mse=sigma**2,
                    flagged=abs(empirical - theory) > 4.0 * std_error,
                )
            )
    return cells


def write_report(cells: Sequence[VarianceCell], directory: str | Path) -> tuple[Path, Path]:
    """Write the grid as a CSV table plus a JSON summary; bytes are stable
    given identical cells."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table_path = directory / "variance.csv"
    lines = ["alpha,horizon,theory_mse,empirical_mse,std_error,baseline_mse,flagged"]
    for cell in cells:
        lines.append(
            f"{cell.alpha!r},{cell.horizon},{cell.theory_mse!r},"
            f"{cell.empirical_mse!r},{cell.std_error!r},{cell.baseline_mse!r},"
            f"{int(cell.flagged)}"
        )
    table_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    summary_path = directory / "variance_summary.json"
    flagged = [cell for cell in cells if cell.flagged]
    summary = {
        "convention": CONVENTION_NOTE,
        "cells": len(cells),
        "flagged_cells": len(flagged),
        "max_abs_z": max(
            (abs(cell.empirical_mse - cell.theory_mse) / cell.std_error)
            if cell.std_error > 0
            else 0.0
            for cell in cells
        ),
        "all_below_baseline": all(cell.theory_mse <= cell.baseline_mse + 1e-12 for cell in cells),
        "grid": [cell.to_dict() for cell in cells],
    }
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return table_path, summary_path
