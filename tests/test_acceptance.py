"""Acceptance suite: one test per headline guarantee, each printing a PASS
line with the measured numbers. These are end-to-end checks at full stated
tolerances; the unit suites cover the same ground at finer grain."""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest

from tsgdm import (
    CachingBackend,
    FORWARD_TEMPLATE,
    FinishReason,
    GenerationParams,
    PromptRecord,
    RemoteBackend,
    ReplayCache,
    RunConfig,
    ScriptRule,
    ScriptedBackend,
    ema_mse_recursive,
    ema_mse_theory,
    EmaModel,
    momentum_weights,
    render_forward,
    run_tsgd,
    sample_source,
    substream,
    synthetic_binding,
    variance_report,
)
from tsgdm.cli import BackendSettings
from tsgdm.rng import STREAM_VARIANCE
from conftest import HoldoutHits, Recorder, make_marker_backend, write_candidates

GRID_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
GRID_HORIZONS = (1, 2, 5, 10, 20, 50)


def serialize_log(backend: Recorder) -> str:
    return json.dumps(
        [
            {
                "prompt_text": r.prompt_text,
                "max_new_tokens": r.max_new_tokens,
                "temperature": r.temperature,
                "stop_sequences": list(r.stop_sequences),
                "request_tag": r.request_tag,
            }
            for r in backend.requests
        ],
        sort_keys=True,
    )


def test_criterion_1_monte_carlo_matches_closed_form():
    """Full-grid Monte Carlo agreement with the closed form, under a minute."""
    started = time.perf_counter()
    cells = variance_report(
        GRID_ALPHAS, GRID_HORIZONS, sigma=1.0, trials=100_000, rng=substream(0, STREAM_VARIANCE)
    )
    elapsed = time.perf_counter() - started
    flagged = [c for c in cells if c.flagged]
    assert len(cells) == len(GRID_ALPHAS) * len(GRID_HORIZONS)
    assert not flagged, [(c.alpha, c.horizon) for c in flagged]
    assert all(c.theory_mse < c.baseline_mse for c in cells)
    assert elapsed < 60.0
    max_z = max(
        abs(c.empirical_mse - c.theory_mse) / c.std_error for c in cells if c.std_error > 0
    )
    print(
        f"ACCEPTANCE 1 PASS: {len(cells)} cells at 100000 trials, 0 flagged, "
        f"max |z| = {max_z:.3f}, all below the fresh-sample baseline, {elapsed:.1f}s"
    )


def test_criterion_2_closed_form_equals_recursion():
    """Closed form and finite-sum recursion agree to 1e-12; spot value pinned."""
    worst = 0.0
    for alpha in GRID_ALPHAS + (0.05, 0.95, 1.0):
        for horizon in (0,) + GRID_HORIZONS:
            model = EmaModel(mu=0.0, sigma=1.0, alpha=alpha, horizon=horizon)
            worst = max(worst, abs(ema_mse_theory(model) - ema_mse_recursive(model)))
    assert worst <= 1e-12
    spot = ema_mse_theory(EmaModel(mu=0.0, sigma=1.0, alpha=0.5, horizon=10))
    assert spot == pytest.approx(0.333334, abs=1e-6)
    print(
        f"ACCEPTANCE 2 PASS: max |closed - recursive| = {worst:.2e} over the grid, "
        f"spot value at alpha=0.5, horizon=10 is {spot:.6f}"
    )


def test_criterion_3_mixture_weight_laws():
    """Weight vectors: normalized, nonnegative, recency-ordered, with exact
    uniform and newest-only degenerate cases; spot vector pinned."""
    checked = 0
    for t in range(65):
        for alpha in (0.0, 0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 0.99, 1.0):
            weights = momentum_weights(alpha, t)
            assert abs(math.fsum(weights) - 1.0) <= 1e-12
            assert all(w >= 0.0 for w in weights)
            if 0.0 < alpha < 1.0:
                assert all(a < b for a, b in zip(weights, list(weights)[1:]))
            if alpha == 1.0:
                assert all(w == pytest.approx(1.0 / (t + 1), abs=1e-12) for w in weights)
            if alpha == 0.0:
                assert list(weights) == [0.0] * t + [1.0]
            checked += 1
    spot = momentum_weights(0.6, 2)
    for got, expected in zip(spot, (0.18367, 0.30612, 0.51020)):
        assert got == pytest.approx(expected, abs=1e-5)
    print(
        f"ACCEPTANCE 3 PASS: {checked} weight vectors up to length 65 satisfy "
        f"normalization, nonnegativity and recency ordering; spot vector "
        f"alpha=0.6, t=2 is {[round(w, 5) for w in spot]}"
    )


def scenario_backend(s: int, finish: FinishReason) -> ScriptedBackend:
    return ScriptedBackend(
        rules=[
            ScriptRule("Batch results:", f"analysis {s}"),
            ScriptRule("carries marker blue", " blue"),
            ScriptRule("carries marker red", " red"),
            ScriptRule(f"variant {s}-B", f"variant {s}-C", finish_reason=finish),
            ScriptRule(f"variant {s}-A", f"variant {s}-B", finish_reason=finish),
            ScriptRule("Improved instruction:", f"variant {s}-A", finish_reason=finish),
        ],
        default_response=" blue",
    )


def test_criterion_4_alpha_zero_reduces_to_vanilla():
    """With alpha=0 the momentum optimizer is the vanilla optimizer: same
    results and the same backend traffic, over randomized scenarios."""
    scenarios = 50
    for s in range(scenarios):
        rng = np.random.default_rng(1000 + s)
        mode = ("case1_meta_prompt", "case2_gradient")[int(rng.integers(0, 2))]
        block = int(rng.choice((2, 4)))
        gen = GenerationParams(
            alpha=0.0,
            max_total_tokens=block * int(rng.integers(1, 3)),
            block_tokens=block,
            temperature=float(rng.choice((0.0, 0.7))),
            candidates=int(rng.integers(1, 4)),
            mode=mode,
        )
        finish = FinishReason.LENGTH if rng.integers(0, 2) else FinishReason.STOP
        total_iterations = int(rng.integers(1, 5))
        batch_size = int(rng.integers(1, 4))
        task = synthetic_binding(n_train=8, n_holdout=4, n_test=4, seed=100 + s)
        results = []
        logs = []
        for use_momentum in (True, False):
            config = RunConfig(
                total_iterations=total_iterations,
                batch_size=batch_size,
                train_size=8,
                patience=3,
                hypothesis_preset="custom",
                seed=77 + s,
                generation=gen,
                use_momentum=use_momentum,
            )
            backend = Recorder(scenario_backend(s, finish))
            result = run_tsgd(config, task, backend)
            results.append(json.dumps(result.to_dict(), sort_keys=True))
            logs.append(serialize_log(backend))
        assert results[0] == results[1], f"scenario {s}: results diverge"
        assert logs[0] == logs[1], f"scenario {s}: backend traffic diverges"
    print(
        f"ACCEPTANCE 4 PASS: {scenarios} randomized scenarios produce byte-identical "
        f"results and byte-identical request logs for momentum(alpha=0) vs vanilla"
    )


def test_criterion_5_sampling_follows_weights():
    """Empirical source frequencies track arbitrary weight vectors within
    3 standard errors at 10000 draws."""
    draws = 10_000
    vectors = 20
    worst_ratio = 0.0
    for v in range(vectors):
        rng = np.random.default_rng(4242 + v)
        n = 2 + v % 7
        raw = [float(x) + 1e-3 for x in rng.random(n)]
        total = math.fsum(raw)
        weights = tuple(w / total for w in raw)
        sampler = substream(9000 + v, 0)
        counts = [0] * n
        for _ in range(draws):
            counts[sample_source(weights, sampler)] += 1
        for index, weight in enumerate(weights):
            bound = 3.0 * math.sqrt(weight * (1.0 - weight) / draws)
            error = abs(counts[index] / draws - weight)
            assert error <= bound, f"vector {v} index {index}: {error:.5f} > {bound:.5f}"
            if bound > 0:
                worst_ratio = max(worst_ratio, error / bound)
    print(
        f"ACCEPTANCE 5 PASS: {vectors} weight vectors x {draws} draws, all "
        f"frequencies within 3 standard errors (worst at {worst_ratio:.2f} of the bound)"
    )


def test_criterion_6_seeded_runs_are_reproducible():
    """Full default operating point: repeated runs are byte-identical, and the
    early-stopping rule returns the pre-stall prompt."""
    task = synthetic_binding(n_train=40, n_holdout=16, n_test=16, seed=0)
    dumps = []
    for _ in range(3):
        result = run_tsgd(RunConfig(), task, make_marker_backend())
        dumps.append(json.dumps(result.to_dict(), sort_keys=True))
    assert dumps[0] == dumps[1] == dumps[2]

    chain = ScriptedBackend(
        rules=[
            ScriptRule("carries marker blue", " blue"),
            ScriptRule("carries marker red", " red"),
            ScriptRule("gen-2", "gen-3"),
            ScriptRule("gen-1", "gen-2"),
            ScriptRule("Improved instruction:", "gen-1"),
        ],
        default_response=" blue",
    )
    config = RunConfig(
        total_iterations=20,
        batch_size=3,
        train_size=12,
        hypothesis_preset="H0",
        seed=5,
        generation=GenerationParams(
            alpha=0.0, max_total_tokens=8, block_tokens=8, temperature=0.7, candidates=1
        ),
    )
    tiny = synthetic_binding(12, 6, 6, seed=7)
    trace = HoldoutHits(chain, tiny, {tiny.initial_prompt: 3, "gen-1": 4, "gen-2": 4, "gen-3": 4})
    stalled = run_tsgd(config, tiny, trace)
    assert stalled.stop_reason.value == "early_stopped"
    assert len(stalled.per_iteration) == 4
    assert stalled.best_prompt == stalled.per_iteration[1].selected_prompt == "gen-1"
    print(
        f"ACCEPTANCE 6 PASS: three seeded default runs byte-identical "
        f"({len(json.loads(dumps[0])['per_iteration'])} rows, best score "
        f"{json.loads(dumps[0])['best_holdout_score']}); stalled trace stops after 4 rows "
        f"and returns the pre-stall prompt"
    )


def test_criterion_7_rendering_golden_corpus():
    """Forward rendering is byte-exact on a frozen corpus; the concatenation
    baseline carries its verbatim header."""
    corpus = [
        (
            ("Classify the review.", "Great movie!", FORWARD_TEMPLATE),
            "Classify the review.\nGreat movie!\nAnswer:",
        ),
        (
            ("Répondez par oui ou non.", "C'est ça — 'naïve' æon \U0001f600", FORWARD_TEMPLATE),
            "Répondez par oui ou non.\nC'est ça — 'naïve' æon \U0001f600\nAnswer:",
        ),
        (
            ("Keep both lines.", "line one\nline two", FORWARD_TEMPLATE),
            "Keep both lines.\nline one\nline two\nAnswer:",
        ),
        (("Prompt only.", "", FORWARD_TEMPLATE), "Prompt only.\n\nAnswer:"),
        (
            ("Say yes.", "thing", "Q: {input}\nInstruction: {prompt}\n->"),
            "Q: thing\nInstruction: Say yes.\n->",
        ),
    ]
    for args, expected in corpus:
        assert render_forward(*args) == expected

    backend = Recorder(ScriptedBackend())
    gen = GenerationParams(max_total_tokens=10, temperature=0.7, candidates=1, mode="concat_baseline")
    write_candidates([PromptRecord("first instruction"), PromptRecord("second instruction")], gen, backend)
    concat = backend.requests[0].prompt_text
    assert "Here are the past iterations of this variable" in concat
    assert "<PAST_ITERATIONS>\nfirst instruction\nsecond instruction\n</PAST_ITERATIONS>" in concat
    print(
        f"ACCEPTANCE 7 PASS: {len(corpus)} frozen renderings byte-exact; concat "
        f"conditioning carries the verbatim history header"
    )


LIVE_BASE_URL = os.environ.get("TSGDM_LIVE_BASE_URL")
LIVE_MODEL = os.environ.get("TSGDM_LIVE_MODEL")
LIVE_KEY_ENV = os.environ.get("TSGDM_LIVE_API_KEY_ENV", "OPENAI_API_KEY")


@pytest.mark.skipif(
    not (LIVE_BASE_URL and LIVE_MODEL and os.environ.get(LIVE_KEY_ENV)),
    reason="live smoke needs TSGDM_LIVE_BASE_URL, TSGDM_LIVE_MODEL and the API key env",
)
def test_criterion_8_live_smoke_records_and_replays(tmp_path):
    """One tiny live run records a transcript that replays byte-identically
    with the network backend unplugged."""
    task = synthetic_binding(n_train=9, n_holdout=3, n_test=3, seed=1)
    config = RunConfig(
        total_iterations=3,
        batch_size=3,
        train_size=9,
        hypothesis_preset="H0",
        seed=0,
        generation=GenerationParams(
            alpha=0.6, max_total_tokens=40, block_tokens=10, temperature=0.7, candidates=3
        ),
    )
    remote = RemoteBackend(
        BackendSettings(kind="openai", base_url=LIVE_BASE_URL, model=LIVE_MODEL, api_key_env=LIVE_KEY_ENV)
    )
    cache = ReplayCache()
    recorded = run_tsgd(config, task, CachingBackend(cache, remote), max_lm_calls=400)
    cache_path = tmp_path / "live_cache.jsonl"
    cache.save(cache_path)

    poisoned = Recorder(ScriptedBackend(rules=[], default_response=" POISON"))
    replay = ReplayCache.load(cache_path, replay=True)
    replayed = run_tsgd(config, task, CachingBackend(replay, poisoned), max_lm_calls=400)
    assert json.dumps(recorded.to_dict(), sort_keys=True) == json.dumps(
        replayed.to_dict(), sort_keys=True
    )
    assert poisoned.requests == []
    print(
        f"ACCEPTANCE 8 PASS: live run ({recorded.total_lm_calls} calls) replayed "
        f"byte-identically from {cache_path.name} with zero live calls"
    )
