"""Candidate generation: block loop, momentum sampling, concat baseline,
textual gradients."""

from __future__ import annotations

import pytest

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
    generate_vanilla,
    momentum_generate,
    momentum_weights,
    sample_source,
    substream,
)


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


class TestBlockLoop:
    def test_three_length_blocks_concatenate(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("", "STEP ", finish_reason=FinishReason.LENGTH)]
        )
        out = generate_vanilla(PromptRecord(0, "base"), case1(), backend)
        assert out == "STEP STEP STEP "
        assert len(backend.call_log) == 3
        assert [r.max_new_tokens for r in backend.call_log] == [4, 4, 4]

    def test_partial_candidate_threaded_as_continuation(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("", "STEP ", finish_reason=FinishReason.LENGTH)]
        )
        generate_vanilla(PromptRecord(0, "base"), case1(), backend)
        first, second, third = [r.prompt_text for r in backend.call_log]
        assert second == first + "STEP "
        assert third == first + "STEP STEP "

    def test_last_block_gets_remainder_budget(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("", "x ", finish_reason=FinishReason.LENGTH)]
        )
        generate_vanilla(
            PromptRecord(0, "base"), case1(max_total_tokens=10, block_tokens=4), backend
        )
        assert [r.max_new_tokens for r in backend.call_log] == [4, 4, 2]

    def test_stop_finish_ends_generation(self):
        backend = ScriptedBackend(rules=[ScriptRule("", "A", finish_reason=FinishReason.STOP)])
        out = generate_vanilla(PromptRecord(0, "base"), case1(), backend)
        assert out == "A"
        assert len(backend.call_log) == 1

    def test_eos_finish_ends_generation(self):
        backend = ScriptedBackend(rules=[ScriptRule("", "B", finish_reason=FinishReason.EOS)])
        out = generate_vanilla(PromptRecord(0, "base"), case1(), backend)
        assert out == "B"
        assert len(backend.call_log) == 1

    def test_single_block_when_block_equals_budget(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("", "full", finish_reason=FinishReason.LENGTH)]
        )
        generate_vanilla(
            PromptRecord(0, "base"), case1(max_total_tokens=8, block_tokens=8), backend
        )
        assert len(backend.call_log) == 1
        assert backend.call_log[0].max_new_tokens == 8

    def test_requests_carry_generation_temperature(self):
        backend = ScriptedBackend()
        generate_vanilla(PromptRecord(0, "base"), case1(temperature=1.1), backend)
        assert backend.call_log[0].temperature == 1.1


class TestVanillaConditioning:
    def test_contains_template_and_prompt_verbatim(self):
        backend = ScriptedBackend()
        generate_vanilla(PromptRecord(0, "MY INSTRUCTION"), case1(), backend)
        prompt = backend.call_log[0].prompt_text
        assert "MY INSTRUCTION" in prompt
        assert "Improved instruction:" in prompt

    def test_case2_includes_gradient(self):
        backend = ScriptedBackend()
        record = PromptRecord(0, "base", gradient_text="THE ANALYSIS")
        generate_vanilla(record, case1(mode="case2_gradient"), backend)
        assert "THE ANALYSIS" in backend.call_log[0].prompt_text

    def test_case2_without_gradient_raises(self):
        with pytest.raises(EmptyBatchError):
            generate_vanilla(PromptRecord(0, "base"), case1(mode="case2_gradient"), ScriptedBackend())


class TestMomentumGenerate:
    def test_empty_history_raises(self):
        with pytest.raises(EmptyHistoryError):
            momentum_generate(OptimizerHistory(), case1(), substream(0, 1), ScriptedBackend())

    def test_single_record_conditions_on_it_regardless_of_alpha(self):
        for alpha in (0.0, 0.5, 1.0):
            backend = ScriptedBackend(
                rules=[ScriptRule("", "b ", finish_reason=FinishReason.LENGTH)]
            )
            momentum_generate(history_of("ONLY"), case1(alpha=alpha), substream(3, 1), backend)
            assert all("ONLY" in r.prompt_text for r in backend.call_log)

    def test_alpha_zero_matches_vanilla_call_log(self):
        history = history_of("p0", "p1", "p2")
        gen = case1(alpha=0.0)
        rng = substream(11, 1, 0)
        mom_backend = ScriptedBackend(
            rules=[ScriptRule("", "t ", finish_reason=FinishReason.LENGTH)]
        )
        van_backend = ScriptedBackend(
            rules=[ScriptRule("", "t ", finish_reason=FinishReason.LENGTH)]
        )
        mom = momentum_generate(history, gen, rng, mom_backend, tag_prefix="refine/iter2/cand0")
        van = generate_vanilla(history[2], gen, van_backend, tag_prefix="refine/iter2/cand0")
        assert mom == van
        assert mom_backend.call_log == van_backend.call_log
        assert all("p2" in r.prompt_text for r in mom_backend.call_log)

    def test_sources_follow_sampled_indices(self):
        history = history_of("AAA", "BBB", "CCC")
        gen = case1(alpha=1.0)
        backend = ScriptedBackend(
            rules=[ScriptRule("", "x ", finish_reason=FinishReason.LENGTH)]
        )
        momentum_generate(history, gen, substream(5, 2), backend)
        weights = momentum_weights(1.0, 2)
        replay = substream(5, 2)
        expected = [history[sample_source(weights, replay)].prompt_text for _ in range(3)]
        got = [r.prompt_text for r in backend.call_log]
        for source, prompt in zip(expected, got):
            assert source in prompt

    def test_case2_sampled_record_travels_with_its_own_gradient(self):
        history = history_of("p0", "p1", gradients=["grad zero", "grad one"])
        gen = case1(mode="case2_gradient", alpha=1.0)
        backend = ScriptedBackend(
            rules=[ScriptRule("", "x ", finish_reason=FinishReason.LENGTH)]
        )
        momentum_generate(history, gen, substream(9, 4), backend)
        for request in backend.call_log:
            if "p0" in request.prompt_text:
                assert "grad zero" in request.prompt_text
                assert "grad one" not in request.prompt_text
            else:
                assert "grad one" in request.prompt_text


def past_block(text):
    return text.split("<PAST_ITERATIONS>\n")[1].split("\n</PAST_ITERATIONS>")[0]


class TestConcatPrompt:
    def test_window_slices_most_recent(self):
        text = concat_momentum_prompt(history_of("a", "b", "c"), 2, CONCAT_HISTORY_PROMPT)
        assert past_block(text) == "b\nc"

    def test_window_covering_all(self):
        text = concat_momentum_prompt(history_of("a", "b", "c"), 10, CONCAT_HISTORY_PROMPT)
        assert past_block(text) == "a\nb\nc"

    def test_single_record_appears_once(self):
        text = concat_momentum_prompt(history_of("only-once"), 1, CONCAT_HISTORY_PROMPT)
        assert text.count("only-once") == 1

    def test_header_verbatim(self):
        text = concat_momentum_prompt(history_of("p"), 1, CONCAT_HISTORY_PROMPT)
        assert "Here are the past iterations of this variable" in text

    def test_errors(self):
        with pytest.raises(EmptyHistoryError):
            concat_momentum_prompt(OptimizerHistory(), 1, CONCAT_HISTORY_PROMPT)
        with pytest.raises(DomainError):
            concat_momentum_prompt(history_of("p"), 0, CONCAT_HISTORY_PROMPT)


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
