"""Candidate generation: block loop, draw plans, momentum sampling, concat
baseline, textual gradients."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgdm import (
    CONCAT_HISTORY_PROMPT,
    DomainError,
    EmptyBatchError,
    EmptyHistoryError,
    FinishReason,
    GenerationMode,
    GenerationParams,
    OptimizerHistory,
    PromptRecord,
    ScriptRule,
    ScriptedBackend,
    compute_textual_gradient,
    concat_momentum_prompt,
    momentum_weights,
    sample_source,
    substream,
)
from tsgdm import optimizer
from tsgdm.optimizer import _maker, draw_plan, generate_candidate
from tsgdm.rng import STREAM_CANDIDATES


def history_of(*prompts, gradients=None):
    history = OptimizerHistory()
    for i, prompt in enumerate(prompts):
        gradient = gradients[i] if gradients else None
        history.append(PromptRecord(iteration=i, prompt_text=prompt, gradient_text=gradient))
    return history


def case1(**kwargs):
    defaults = dict(alpha=0.6, max_total_tokens=12, block_tokens=4, temperature=0.7, candidates=1)
    defaults.update(kwargs)
    return GenerationParams(**defaults)


class TestGenerationParams:
    def test_block_must_fit_budget(self):
        with pytest.raises(DomainError):
            case1(block_tokens=20, max_total_tokens=10)

    def test_invalid_candidates(self):
        with pytest.raises(DomainError):
            case1(candidates=0)

    def test_mode_string_coerced(self):
        gen = case1(mode="case2_gradient")
        assert gen.mode is GenerationMode.CASE2_GRADIENT
        assert gen.analyze_template is not None

    def test_refine_template_placeholder_enforced(self):
        with pytest.raises(DomainError):
            case1(refine_template="no placeholder here")
        with pytest.raises(DomainError):
            case1(mode="case2_gradient", refine_template="{prompt} only")

    def test_concat_template_needs_history(self):
        with pytest.raises(DomainError):
            case1(mode="concat_baseline", refine_template="{prompt}")

    @pytest.mark.parametrize("template", ["x {prompt} {oops", "{prompt} {nope}", "{prompt} {}"])
    def test_refine_template_that_cannot_render_is_rejected(self, template):
        with pytest.raises(DomainError, match="refine_template"):
            case1(refine_template=template)

    def test_each_mode_renders_only_its_own_fields(self):
        with pytest.raises(DomainError, match="refine_template"):
            case1(mode="case2_gradient", refine_template="{prompt} {gradient} {history}")
        with pytest.raises(DomainError, match="refine_template"):
            case1(mode="concat_baseline", refine_template="{history} {prompt}")
        with pytest.raises(DomainError, match="analyze_template"):
            case1(mode="case2_gradient", analyze_template="{prompt} {examples} {gradient}")
        assert case1(refine_template="{prompt} {{braces}}").refine_template == "{prompt} {{braces}}"


def blocks_of(text, gen):
    """Conditioning ``text`` for every block of a candidate under ``gen``."""
    return (text,) * math.ceil(gen.max_total_tokens / gen.block_tokens)


class TestBlockLoop:
    def test_three_length_blocks_concatenate(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("", "STEP ", finish_reason=FinishReason.LENGTH)]
        )
        out = generate_candidate(blocks_of("base", case1()), case1(), backend, "refine")
        assert out == "STEP STEP STEP "
        assert len(backend.call_log) == 3
        assert [r.max_new_tokens for r in backend.call_log] == [4, 4, 4]

    def test_partial_candidate_threaded_as_continuation(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("", "STEP ", finish_reason=FinishReason.LENGTH)]
        )
        generate_candidate(blocks_of("base", case1()), case1(), backend, "refine")
        first, second, third = [r.prompt_text for r in backend.call_log]
        assert second == first + "STEP "
        assert third == first + "STEP STEP "

    def test_last_block_gets_remainder_budget(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("", "x ", finish_reason=FinishReason.LENGTH)]
        )
        gen = case1(max_total_tokens=10, block_tokens=4)
        generate_candidate(blocks_of("base", gen), gen, backend, "refine")
        assert [r.max_new_tokens for r in backend.call_log] == [4, 4, 2]

    def test_stop_finish_ends_generation(self):
        backend = ScriptedBackend(rules=[ScriptRule("", "A", finish_reason=FinishReason.STOP)])
        out = generate_candidate(blocks_of("base", case1()), case1(), backend, "refine")
        assert out == "A"
        assert len(backend.call_log) == 1

    def test_eos_finish_ends_generation(self):
        backend = ScriptedBackend(rules=[ScriptRule("", "B", finish_reason=FinishReason.EOS)])
        out = generate_candidate(blocks_of("base", case1()), case1(), backend, "refine")
        assert out == "B"
        assert len(backend.call_log) == 1

    def test_single_block_when_block_equals_budget(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("", "full", finish_reason=FinishReason.LENGTH)]
        )
        gen = case1(max_total_tokens=8, block_tokens=8)
        generate_candidate(blocks_of("base", gen), gen, backend, "refine")
        assert len(backend.call_log) == 1
        assert backend.call_log[0].max_new_tokens == 8

    def test_requests_carry_generation_temperature(self):
        backend = ScriptedBackend()
        gen = case1(temperature=1.1)
        generate_candidate(blocks_of("base", gen), gen, backend, "refine")
        assert backend.call_log[0].temperature == 1.1


def vanilla(record, gen, backend):
    """Candidate 0 of the vanilla update on ``record``."""
    return _maker([record], gen, False, 0, backend)(0)


def momentum(history, gen, seed, backend, j=0):
    """Candidate ``j`` of the momentum update over ``history``."""
    return _maker(history, gen, True, seed, backend)(j)


class TestVanillaConditioning:
    def test_contains_template_and_prompt_verbatim(self):
        backend = ScriptedBackend()
        vanilla(PromptRecord(0, "MY INSTRUCTION"), case1(), backend)
        prompt = backend.call_log[0].prompt_text
        assert "MY INSTRUCTION" in prompt
        assert "Improved instruction:" in prompt

    def test_case2_includes_gradient(self):
        backend = ScriptedBackend()
        record = PromptRecord(0, "base", gradient_text="THE ANALYSIS")
        vanilla(record, case1(mode="case2_gradient"), backend)
        assert "THE ANALYSIS" in backend.call_log[0].prompt_text

    def test_case2_without_gradient_raises(self):
        with pytest.raises(EmptyBatchError):
            vanilla(PromptRecord(0, "base"), case1(mode="case2_gradient"), ScriptedBackend())


class TestMomentumGenerate:
    def test_empty_history_raises(self):
        with pytest.raises(EmptyHistoryError):
            momentum(OptimizerHistory(), case1(), 0, ScriptedBackend())

    def test_single_record_conditions_on_it_regardless_of_alpha(self):
        for alpha in (0.0, 0.5, 1.0):
            backend = ScriptedBackend(
                rules=[ScriptRule("", "b ", finish_reason=FinishReason.LENGTH)]
            )
            momentum(history_of("ONLY"), case1(alpha=alpha), 3, backend)
            assert all("ONLY" in r.prompt_text for r in backend.call_log)

    def test_alpha_zero_matches_vanilla_call_log(self):
        history = history_of("p0", "p1", "p2")
        gen = case1(alpha=0.0)
        mom_backend = ScriptedBackend(
            rules=[ScriptRule("", "t ", finish_reason=FinishReason.LENGTH)]
        )
        van_backend = ScriptedBackend(
            rules=[ScriptRule("", "t ", finish_reason=FinishReason.LENGTH)]
        )
        mom = momentum(history, gen, 11, mom_backend)
        van = vanilla(history[2], gen, van_backend)
        assert mom == van
        assert mom_backend.call_log == van_backend.call_log
        assert all("p2" in r.prompt_text for r in mom_backend.call_log)

    def test_sources_follow_sampled_indices(self):
        history = history_of("AAA", "BBB", "CCC")
        gen = case1(alpha=1.0)
        backend = ScriptedBackend(
            rules=[ScriptRule("", "x ", finish_reason=FinishReason.LENGTH)]
        )
        momentum(history, gen, 5, backend)
        plan = draw_plan(momentum_weights(1.0, 2), 3, substream(5, STREAM_CANDIDATES, 2, 0))
        got = [r.prompt_text for r in backend.call_log]
        assert len(got) == len(plan)
        for source, prompt in zip(plan, got):
            assert prompt.startswith(gen.refine_template.format(prompt=history[source].prompt_text))

    def test_case2_sampled_record_travels_with_its_own_gradient(self):
        history = history_of("p0", "p1", gradients=["grad zero", "grad one"])
        gen = case1(mode="case2_gradient", alpha=1.0)
        backend = ScriptedBackend(
            rules=[ScriptRule("", "x ", finish_reason=FinishReason.LENGTH)]
        )
        for j in range(4):
            momentum(history, gen, 9, backend, j)
        for request in backend.call_log:
            if "p0" in request.prompt_text:
                assert "grad zero" in request.prompt_text
                assert "grad one" not in request.prompt_text
            else:
                assert "grad one" in request.prompt_text


class TestDrawPlan:
    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(0, 30), blocks=st.integers(1, 20), seed=st.integers(0, 2**32))
    def test_alpha_zero_plan_is_the_newest_record(self, t, blocks, seed):
        assert draw_plan(momentum_weights(0.0, t), blocks, substream(seed, 1)) == (t,) * blocks

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        t=st.integers(0, 10),
        blocks=st.integers(1, 12),
        n=st.integers(0, 12),
        seed=st.integers(0, 2**32),
    )
    def test_a_plan_is_successive_source_draws(self, alpha, t, blocks, n, seed):
        n = min(n, blocks)
        weights = momentum_weights(alpha, t)
        replay = substream(seed, 1)
        expected = tuple(sample_source(weights, replay) for _ in range(n))
        assert draw_plan(weights, blocks, substream(seed, 1))[:n] == expected

    @pytest.mark.parametrize("mode", ["case1_meta_prompt", "case2_gradient"])
    def test_over_one_record_no_substream_is_made(self, monkeypatch, mode):
        def no_stream(*args):
            raise AssertionError(f"substream{args} made over a single record")

        monkeypatch.setattr(optimizer, "substream", no_stream)
        backend = ScriptedBackend(rules=[ScriptRule("", "b ", finish_reason=FinishReason.LENGTH)])
        history = history_of("ONLY", gradients=["grad"])
        for j in range(3):
            momentum(history, case1(alpha=0.5, mode=mode), 3, backend, j)
        assert len(backend.call_log) == 9


def past_block(text):
    return text.split("<PAST_ITERATIONS>\n")[1].split("\n</PAST_ITERATIONS>")[0]


class TestConcatPrompt:
    def test_window_covering_all(self):
        text = concat_momentum_prompt(history_of("a", "b", "c"), CONCAT_HISTORY_PROMPT)
        assert past_block(text) == "a\nb\nc"

    def test_single_record_appears_once(self):
        text = concat_momentum_prompt(history_of("only-once"), CONCAT_HISTORY_PROMPT)
        assert text.count("only-once") == 1

    def test_header_verbatim(self):
        text = concat_momentum_prompt(history_of("p"), CONCAT_HISTORY_PROMPT)
        assert "Here are the past iterations of this variable" in text

    def test_errors(self):
        with pytest.raises(EmptyHistoryError):
            concat_momentum_prompt(OptimizerHistory(), CONCAT_HISTORY_PROMPT)


class TestTextualGradient:
    def test_returns_scripted_completion_verbatim(self):
        backend = ScriptedBackend(default_response="Errors: the prompt ignores sarcasm")
        record = PromptRecord(0, "p", batch_triples=(("x", "pos", "neg"),))
        gen = case1(mode="case2_gradient")
        out = compute_textual_gradient(record, gen.analyze_template, backend, gen)
        assert out == "Errors: the prompt ignores sarcasm"

    def test_rendered_prompt_contains_all_parts(self):
        backend = ScriptedBackend()
        record = PromptRecord(0, "Classify X", batch_triples=(("a", "pos", "neg"),))
        gen = case1(mode="case2_gradient")
        compute_textual_gradient(record, gen.analyze_template, backend, gen)
        rendered = backend.call_log[0].prompt_text
        for part in ("Classify X", "a", "pos", "neg"):
            assert part in rendered

    def test_empty_batch_raises(self):
        gen = case1(mode="case2_gradient")
        with pytest.raises(EmptyBatchError):
            compute_textual_gradient(PromptRecord(0, "p"), gen.analyze_template, ScriptedBackend(), gen)
