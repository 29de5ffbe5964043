"""Outer optimization loop: scoring rows, early stopping, determinism,
failure handling."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from tsgdm import (
    BudgetExceededError,
    CompletionResult,
    DomainError,
    EmptySetError,
    FinishReason,
    GenerationParams,
    HypothesisPreset,
    LabeledExample,
    NetworkError,
    REFINE_PROMPT,
    RunConfig,
    ScriptRule,
    ScriptedBackend,
    SizeError,
    StopReason,
    TaskBinding,
    momentum_weights,
    run_tsgd,
    score_prompt,
    substream,
    synthetic_binding,
)
from tsgdm.optimizer import draw_plan
from tsgdm.rng import STREAM_CANDIDATES
from conftest import HoldoutHits, Recorder, make_marker_backend


def chain_backend():
    """Marker rules for forward passes plus a refine chain that yields a new
    distinct prompt each iteration."""
    return ScriptedBackend(
        rules=[
            ScriptRule("carries marker blue", " blue"),
            ScriptRule("carries marker red", " red"),
            ScriptRule("gen-2", "gen-3"),
            ScriptRule("gen-1", "gen-2"),
            ScriptRule("Improved instruction:", "gen-1"),
        ],
        default_response=" blue",
    )


def small_config(**kwargs):
    defaults = dict(
        total_iterations=20,
        batch_size=3,
        train_size=12,
        patience=2,
        hypothesis_preset="custom",
        seed=5,
        generation=GenerationParams(
            alpha=0.0, max_total_tokens=8, block_tokens=8, temperature=0.7, candidates=1
        ),
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestPresets:
    def test_h0_forces_temperature_and_patience(self):
        # H0, the default, refuses another value rather than overwrite it.
        for given in ({}, {"hypothesis_preset": "H0"}):
            with pytest.raises(DomainError, match="patience: preset H0 sets 2, got 9"):
                RunConfig(patience=9, **given)
            with pytest.raises(DomainError, match="generation.temperature: preset H0 sets 0.7, got 1.5"):
                RunConfig(generation=GenerationParams(temperature=1.5), **given)
            config = RunConfig(patience=2, generation=GenerationParams(temperature=0.7), **given)
            assert (config.patience, config.generation.temperature) == (2, 0.7)

    def test_h1_forces_temperature_and_patience(self):
        config = RunConfig(hypothesis_preset=HypothesisPreset.H1)
        assert config.generation.temperature == 1.1
        assert config.patience == 5

    def test_preset_leaves_the_callers_generation_params_alone(self):
        gen = GenerationParams(temperature=1.5)
        with pytest.raises(DomainError, match="preset H1"):
            RunConfig(hypothesis_preset="H1", generation=gen)
        assert gen.temperature == 1.5
        unset = GenerationParams()
        config = RunConfig(hypothesis_preset="H1", generation=unset)
        assert config.generation.temperature == 1.1
        assert unset.temperature is None

    def test_custom_fills_what_is_left_unset(self):
        gen = GenerationParams(alpha=0.3)
        config = RunConfig(hypothesis_preset="custom", generation=gen)
        assert (config.patience, config.generation.temperature) == (2, 0.7)
        assert gen.temperature is None
        assert RunConfig(hypothesis_preset="custom", patience=9).patience == 9

    @pytest.mark.parametrize("preset", ["H0", "H1", "custom"])
    def test_rebuilding_a_resolved_config_copies_nothing(self, preset):
        # The CLI and sweeps rebuild each trial's config with replace.
        config = RunConfig(hypothesis_preset=preset)
        rebuilt = dataclasses.replace(config, seed=4)
        assert rebuilt.generation is config.generation
        assert (rebuilt.patience, rebuilt.generation.temperature) == (config.patience, config.generation.temperature)

    def test_custom_forces_nothing(self):
        config = RunConfig(
            patience=9,
            hypothesis_preset="custom",
            generation=GenerationParams(temperature=1.5),
        )
        assert config.generation.temperature == 1.5
        assert config.patience == 9

    def test_validation(self):
        with pytest.raises(DomainError):
            RunConfig(total_iterations=-1)
        with pytest.raises(DomainError):
            RunConfig(batch_size=0)
        with pytest.raises(DomainError):
            RunConfig(patience=0)


def chain_hits(task, *hits):
    """:func:`chain_backend` with ``hits[0]`` holdout hits for the initial
    prompt and ``hits[t]`` for gen-t."""
    prompts = (task.initial_prompt, "gen-1", "gen-2", "gen-3")
    return HoldoutHits(chain_backend(), task, zip(prompts, hits))


class TestRunLoop:
    def test_t_zero_returns_initial_prompt(self, tiny_task):
        config = small_config(total_iterations=0)
        backend = HoldoutHits(make_marker_backend(), tiny_task, {tiny_task.initial_prompt: 2})
        result = run_tsgd(config, tiny_task, backend)
        assert result.best_prompt == tiny_task.initial_prompt
        assert result.stop_reason is StopReason.MAX_ITERATIONS
        assert len(result.per_iteration) == 1
        assert result.per_iteration[0].holdout_score == 2 / 6
        assert result.total_lm_calls == len(tiny_task.holdout)

    def test_early_stop_trace_returns_iteration_one_prompt(self, tiny_task):
        result = run_tsgd(small_config(), tiny_task, chain_hits(tiny_task, 3, 4, 4, 4))
        assert result.stop_reason is StopReason.EARLY_STOPPED
        assert len(result.per_iteration) == 4
        assert [row.holdout_score for row in result.per_iteration] == [3 / 6, 4 / 6, 4 / 6, 4 / 6]
        assert [row.selected_prompt for row in result.per_iteration[1:]] == [
            "gen-1",
            "gen-2",
            "gen-3",
        ]
        assert result.best_prompt == "gen-1"
        assert result.best_score == 4 / 6

    def test_iteration_rows_are_contiguous(self, tiny_task):
        result = run_tsgd(small_config(), tiny_task, chain_hits(tiny_task, 3, 4, 4, 4))
        assert [row.iteration for row in result.per_iteration] == [0, 1, 2, 3]

    def test_best_prompt_is_earliest_max(self, tiny_task):
        result = run_tsgd(small_config(), tiny_task, chain_hits(tiny_task, 3, 5, 4, 4))
        assert result.best_prompt == "gen-1"
        assert result.best_score == 5 / 6
        assert result.stop_reason is StopReason.EARLY_STOPPED

    def test_max_iterations_when_patience_never_fires(self, tiny_task):
        result = run_tsgd(small_config(total_iterations=3), tiny_task, chain_hits(tiny_task, 1, 2, 3, 4))
        assert result.stop_reason is StopReason.MAX_ITERATIONS
        assert len(result.per_iteration) == 4
        assert result.best_prompt == "gen-3"

    def test_counts_gateway_calls_monotonically(self, tiny_task):
        result = run_tsgd(
            small_config(total_iterations=2, patience=5), tiny_task, chain_hits(tiny_task, 1, 2, 3)
        )
        calls = [row.gateway_calls for row in result.per_iteration]
        assert calls == sorted(calls)
        assert result.total_lm_calls == calls[-1]
        assert result.total_lm_calls > 0

    def test_single_candidate_is_scored_once_per_iteration(self, tiny_task):
        backend = Recorder(chain_backend())
        result = run_tsgd(small_config(total_iterations=3, patience=9), tiny_task, backend)
        score_tags = [r.request_tag for r in backend.requests if r.request_tag.startswith("score/")]
        assert len(score_tags) == 4 * len(tiny_task.holdout)
        assert [row.candidate_scores for row in result.per_iteration] == [()] * 4

    def test_holdout_passes_are_tagged_with_their_iteration_and_candidate(self, tiny_task):
        gen = GenerationParams(alpha=0.6, max_total_tokens=8, block_tokens=8, temperature=0.7, candidates=2)
        backend = Recorder(chain_backend())
        run_tsgd(small_config(total_iterations=2, patience=9, generation=gen), tiny_task, backend)
        examples = range(len(tiny_task.holdout))
        expected = [f"score/ex{i}" for i in examples] + [
            f"score/iter{t}/cand{j}/ex{i}" for t in range(2) for j in range(2) for i in examples
        ]
        assert [r.request_tag for r in backend.requests if r.request_tag.startswith("score/")] == expected

    def test_real_holdout_scoring_counts_examples(self, tiny_task):
        config = small_config(total_iterations=0)
        backend = make_marker_backend()
        result = run_tsgd(config, tiny_task, backend)
        assert result.total_lm_calls == len(tiny_task.holdout)
        assert result.per_iteration[0].holdout_score == 1.0

    def test_the_tasks_own_rule_scores_every_split(self):
        """An exact-match task with its own forward template: the batch,
        holdout and test passes all render with that template, and the test
        pass scores by exact match as holdout selection does."""

        def split(start: int) -> tuple[LabeledExample, ...]:
            return tuple(LabeledExample(f"what is {n} plus one", str(n + 1)) for n in range(start, start + 4))

        template = "Q: {input}\nInstruction: {prompt}\nA:"
        task = TaskBinding(
            "arith", (), split(0), split(10), split(20), "Add one.", forward_template=template, exact_match=True
        )

        class Adder:
            """Greedy passes answer n + 1 for even n and n + 2 for odd n."""

            def complete(self, request):
                if request.temperature > 0.0:
                    return CompletionResult("Add one to the number.", FinishReason.STOP)
                n = int(re.search(r"what is (\d+) plus one", request.prompt_text)[1])
                return CompletionResult(f"The answer is {n + 1 + n % 2}.", FinishReason.STOP)

        backend = Recorder(Adder())
        gen = GenerationParams(max_total_tokens=8, block_tokens=8, temperature=0.7, candidates=2, mode="case2_gradient")
        result = run_tsgd(small_config(total_iterations=1, generation=gen), task, backend)
        accuracy = score_prompt(task, result.best_prompt, task.test, backend, tag="test")
        greedy = [r for r in backend.requests if r.temperature == 0.0]
        assert {r.request_tag.split("/")[0] for r in greedy} == {"predict", "score", "test"}
        form = re.compile(r"Q: what is \d+ plus one\nInstruction: .*\nA:", re.DOTALL)
        assert all(form.fullmatch(r.prompt_text) for r in greedy)
        assert result.best_score == accuracy == 0.5

    def test_deterministic_given_seed(self, tiny_task):
        config = small_config(
            total_iterations=3,
            generation=GenerationParams(
                alpha=0.6, max_total_tokens=8, block_tokens=4, temperature=0.7, candidates=3
            ),
        )
        results = []
        for _ in range(2):
            results.append(run_tsgd(config, tiny_task, make_marker_backend()))
        first, second = (json.dumps(r.to_dict(), sort_keys=True) for r in results)
        assert first == second

    def test_different_seeds_draw_different_batches(self, tiny_task):
        # Gradient mode is the one mode that draws a batch.
        gen = GenerationParams(
            alpha=0.0, max_total_tokens=8, block_tokens=8, temperature=0.7, candidates=1, mode="case2_gradient"
        )
        logs = []
        for seed in (0, 1):
            backend = Recorder(make_marker_backend())
            run_tsgd(
                small_config(total_iterations=1, seed=seed, generation=gen),
                tiny_task,
                HoldoutHits(backend, tiny_task),
            )
            logs.append([r.prompt_text for r in backend.requests if r.request_tag.startswith("predict")])
        assert logs[0] != logs[1]

    def test_concat_mode_runs_with_verbatim_header(self, tiny_task):
        backend = Recorder(make_marker_backend())
        config = small_config(
            total_iterations=2,
            patience=5,
            generation=GenerationParams(
                alpha=0.6,
                max_total_tokens=8,
                block_tokens=8,
                temperature=0.7,
                candidates=1,
                mode="concat_baseline",
            ),
        )
        run_tsgd(config, tiny_task, HoldoutHits(backend, tiny_task))
        refine_calls = [r for r in backend.requests if r.request_tag.startswith("refine")]
        assert refine_calls
        assert all(
            "Here are the past iterations of this variable" in r.prompt_text
            for r in refine_calls
        )

    def test_gradient_mode_records_and_conditions_on_gradients(self, tiny_task):
        backend = Recorder(make_marker_backend())
        config = small_config(
            total_iterations=2,
            patience=5,
            generation=GenerationParams(
                alpha=0.6,
                max_total_tokens=8,
                block_tokens=8,
                temperature=0.7,
                candidates=1,
                mode="case2_gradient",
            ),
        )
        run_tsgd(config, tiny_task, HoldoutHits(backend, tiny_task))
        analyze_calls = [r for r in backend.requests if r.request_tag.startswith("analyze")]
        refine_calls = [r for r in backend.requests if r.request_tag.startswith("refine")]
        assert [r.request_tag for r in analyze_calls] == ["analyze/iter0", "analyze/iter1"]
        assert all("The instruction ignores the marker word." in r.prompt_text for r in refine_calls)


    def test_concat_conditions_on_every_prompt_up_to_the_current_one(self, tiny_task):
        backend = Recorder(
            ScriptedBackend(
                rules=[
                    ScriptRule("gen-2", "gen-3"),
                    ScriptRule("gen-1", "gen-2"),
                    ScriptRule("Improved version:", "gen-1"),
                ],
                default_response=" blue",
            )
        )
        config = small_config(
            total_iterations=3,
            patience=5,
            generation=GenerationParams(
                alpha=0.6, max_total_tokens=8, block_tokens=8, temperature=0.7, candidates=1,
                mode="concat_baseline",
            ),
        )
        hits = {tiny_task.initial_prompt: 1, "gen-1": 2, "gen-2": 3, "gen-3": 4}
        result = run_tsgd(config, tiny_task, HoldoutHits(backend, tiny_task, hits))
        prompts = [row.selected_prompt for row in result.per_iteration]
        assert prompts == [tiny_task.initial_prompt, "gen-1", "gen-2", "gen-3"]
        for t in range(3):
            (request,) = [r for r in backend.requests if r.request_tag.startswith(f"refine/iter{t}/")]
            joined = "\n".join(prompts[: t + 1])
            assert f"<PAST_ITERATIONS>\n{joined}\n</PAST_ITERATIONS>" in request.prompt_text

    def test_momentum_candidates_follow_their_draw_plans(self, tiny_task):
        # Candidate j of round t conditions each block on the record its
        # draw plan names, drawn from its own substream.
        gen = GenerationParams(alpha=1.0, max_total_tokens=8, block_tokens=8, temperature=0.7, candidates=4)
        backend = Recorder(chain_backend())
        scored = HoldoutHits(backend, tiny_task, {"gen-1": 3, "gen-2": 4, "gen-3": 5})
        result = run_tsgd(small_config(total_iterations=3, patience=5, generation=gen), tiny_task, scored)
        prompts = [row.selected_prompt for row in result.per_iteration]
        assert len(set(prompts)) == 4
        for t in (1, 2):
            weights = momentum_weights(1.0, t)
            refines = [r for r in backend.requests if r.request_tag.startswith(f"refine/iter{t}/")]
            sent = [(r.request_tag, r.prompt_text) for r in refines]
            expected = []
            for j in range(4):
                (source,) = draw_plan(weights, 1, substream(5, STREAM_CANDIDATES, t, j))
                expected.append((f"refine/iter{t}/cand{j}/block0", REFINE_PROMPT.format(prompt=prompts[source])))
            assert sent == expected

    @pytest.mark.parametrize(
        "mode, first",
        [
            # Without an analysis, generation reads only the prompt text and
            # no batch is drawn.
            ("case1_meta_prompt", ["refine"] * 2),
            ("concat_baseline", ["refine"] * 2),
            ("case2_gradient", ["predict"] * 3 + ["analyze"] + ["refine"] * 2),
        ],
    )
    def test_sequential_call_order_of_each_mode(self, tiny_task, mode, first):
        backend = Recorder(make_marker_backend())
        config = small_config(
            total_iterations=2,
            patience=5,
            generation=GenerationParams(
                alpha=0.6, max_total_tokens=8, block_tokens=8, temperature=0.7, candidates=2, mode=mode
            ),
        )
        run_tsgd(config, tiny_task, backend)
        holdout = ["score"] * len(tiny_task.holdout)
        phases = [r.request_tag.split("/")[0] for r in backend.requests]
        assert phases == holdout + (first + holdout * 2) * 2


class FlakyBackend:
    def __init__(self, fail_after):
        self.fail_after = fail_after
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls > self.fail_after:
            raise NetworkError("connection lost")
        return CompletionResult(text=" blue", finish_reason=FinishReason.STOP)


class TestFailureHandling:
    def test_partial_log_attached_on_gateway_failure(self, tiny_task):
        backend = FlakyBackend(fail_after=8)
        with pytest.raises(NetworkError) as excinfo:
            run_tsgd(small_config(), tiny_task, backend)
        partial = excinfo.value.partial_run_log
        assert len(partial) == 1
        assert partial[0].iteration == 0

    def test_budget_aborts_cleanly(self, tiny_task):
        with pytest.raises(BudgetExceededError) as excinfo:
            run_tsgd(small_config(), tiny_task, make_marker_backend(), max_lm_calls=8)
        assert len(excinfo.value.partial_run_log) == 1

    @pytest.mark.parametrize("mode", ["case1_meta_prompt", "case2_gradient", "concat_baseline"])
    def test_oversized_batch_without_replacement(self, tiny_task, mode):
        # Only gradient mode draws a batch, but every mode refuses one that
        # cannot be drawn, before its first call.
        gen = GenerationParams(max_total_tokens=8, block_tokens=8, candidates=1, mode=mode)
        backend = Recorder(make_marker_backend())
        with pytest.raises(SizeError):
            run_tsgd(small_config(batch_size=50, generation=gen), tiny_task, backend)
        assert backend.requests == []

    @pytest.mark.parametrize("mode", ["case1_meta_prompt", "case2_gradient", "concat_baseline"])
    def test_empty_train_pool(self, mode):
        task = synthetic_binding(n_train=0, n_holdout=6, n_test=6, seed=7)
        gen = GenerationParams(max_total_tokens=8, block_tokens=8, candidates=1, mode=mode)
        backend = Recorder(make_marker_backend())
        with pytest.raises(EmptySetError):
            run_tsgd(small_config(generation=gen), task, backend)
        assert backend.requests == []

    def test_oversized_batch_with_replacement_runs(self, tiny_task):
        config = small_config(batch_size=50, total_iterations=1, sample_with_replacement=True)
        result = run_tsgd(config, tiny_task, HoldoutHits(make_marker_backend(), tiny_task))
        assert len(result.per_iteration) == 2
