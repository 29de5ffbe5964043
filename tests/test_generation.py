"""Candidate generation: a candidate's blocks, draw plans, momentum
sampling, concat baseline, textual gradients. Candidates are written by
:func:`conftest.write_candidates`; the analysis by a round run on a batch."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgdm import (
    ANALYZE_PROMPT,
    CONCAT_HISTORY_PROMPT,
    DomainError,
    FinishReason,
    GenerationMode,
    GenerationParams,
    LabeledExample,
    PromptRecord,
    REFINE_PROMPT,
    REFINE_WITH_FEEDBACK_PROMPT,
    ScriptRule,
    ScriptedBackend,
    momentum_weights,
    sample_source,
    substream,
    synthetic_binding,
)
from tsgdm import optimizer
from tsgdm.gateway import SEQUENTIAL
from tsgdm.optimizer import draw_plan
from tsgdm.rng import STREAM_CANDIDATES
from tsgdm.templates import check_template
from conftest import Recorder, write_candidates


def history_of(*prompts, gradients=None):
    return tuple(
        PromptRecord(prompt_text=prompt, gradient_text=gradients[i] if gradients else None)
        for i, prompt in enumerate(prompts)
    )


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

    def test_an_unset_temperature_is_refused_at_the_first_request(self):
        with pytest.raises(DomainError, match="temperature must be >= 0, got None"):
            vanilla(BASE, case1(temperature=None), ScriptedBackend())

    def test_mode_string_coerced(self):
        gen = case1(mode="case2_gradient")
        assert gen.mode is GenerationMode.CASE2_GRADIENT

    def test_each_mode_renders_only_its_own_fields(self):
        """Each constant prompt names every field its mode fills in and
        renders with those alone, so none drops the analysis or the history."""
        for name, template, fields in (
            ("REFINE_PROMPT", REFINE_PROMPT, ("prompt",)),
            ("REFINE_WITH_FEEDBACK_PROMPT", REFINE_WITH_FEEDBACK_PROMPT, ("prompt", "gradient")),
            ("CONCAT_HISTORY_PROMPT", CONCAT_HISTORY_PROMPT, ("history",)),
            ("ANALYZE_PROMPT", ANALYZE_PROMPT, ("prompt", "examples")),
        ):
            check_template(name, template, fields)


BASE = PromptRecord("base")


def vanilla(record, gen, backend):
    """Candidate 0 of the vanilla update on ``record``."""
    return write_candidates([record], gen, backend, momentum=False)[0]


def momentum(history, gen, seed, backend, j=0):
    """Candidate ``j`` of the momentum update over ``history``."""
    return write_candidates(history, gen, backend, seed=seed, js=(j,))[0]


class TestBlockLoop:
    def test_three_length_blocks_concatenate(self):
        backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "STEP ", finish_reason=FinishReason.LENGTH)]))
        out = vanilla(BASE, case1(), backend)
        assert out == "STEP STEP STEP "
        assert len(backend.requests) == 3
        assert [r.max_new_tokens for r in backend.requests] == [4, 4, 4]

    def test_partial_candidate_threaded_as_continuation(self):
        backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "STEP ", finish_reason=FinishReason.LENGTH)]))
        vanilla(BASE, case1(), backend)
        first, second, third = [r.prompt_text for r in backend.requests]
        assert second == first + "STEP "
        assert third == first + "STEP STEP "

    def test_last_block_gets_remainder_budget(self):
        backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "x ", finish_reason=FinishReason.LENGTH)]))
        gen = case1(max_total_tokens=10, block_tokens=4)
        vanilla(BASE, gen, backend)
        assert [r.max_new_tokens for r in backend.requests] == [4, 4, 2]

    def test_stop_finish_ends_generation(self):
        backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "A", finish_reason=FinishReason.STOP)]))
        out = vanilla(BASE, case1(), backend)
        assert out == "A"
        assert len(backend.requests) == 1

    def test_eos_finish_ends_generation(self):
        backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "B", finish_reason=FinishReason.EOS)]))
        out = vanilla(BASE, case1(), backend)
        assert out == "B"
        assert len(backend.requests) == 1

    def test_single_block_when_block_equals_budget(self):
        backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "full", finish_reason=FinishReason.LENGTH)]))
        gen = case1(max_total_tokens=8, block_tokens=8)
        vanilla(BASE, gen, backend)
        assert len(backend.requests) == 1
        assert backend.requests[0].max_new_tokens == 8

    def test_requests_carry_generation_temperature(self):
        backend = Recorder(ScriptedBackend())
        gen = case1(temperature=1.1)
        vanilla(BASE, gen, backend)
        assert backend.requests[0].temperature == 1.1


class TestVanillaConditioning:
    @pytest.mark.parametrize(
        "mode, template",
        [
            (GenerationMode.CASE1_META_PROMPT, REFINE_PROMPT),
            (GenerationMode.CASE2_GRADIENT, REFINE_WITH_FEEDBACK_PROMPT),
            (GenerationMode.CONCAT_BASELINE, CONCAT_HISTORY_PROMPT),
        ],
        ids=["case1", "case2", "concat"],
    )
    def test_each_mode_rewrites_with_its_constant_prompt(self, mode, template):
        """Only the mode decides the rewrite prompt: the one its table names."""
        assert optimizer._REFINE[mode] is template
        backend = Recorder(ScriptedBackend())
        history = history_of("p0", "p1", gradients=["g0", "g1"])
        write_candidates(history, case1(mode=mode), backend, momentum=False)
        (request,) = backend.requests
        assert request.prompt_text == template.format(prompt="p1", gradient="g1", history="p0\np1")

    def test_contains_template_and_prompt_verbatim(self):
        backend = Recorder(ScriptedBackend())
        vanilla(PromptRecord("MY INSTRUCTION"), case1(), backend)
        prompt = backend.requests[0].prompt_text
        assert "MY INSTRUCTION" in prompt
        assert "Improved instruction:" in prompt

    def test_case2_includes_gradient(self):
        backend = Recorder(ScriptedBackend())
        record = PromptRecord("base", gradient_text="THE ANALYSIS")
        vanilla(record, case1(mode="case2_gradient"), backend)
        assert "THE ANALYSIS" in backend.requests[0].prompt_text


class TestMomentumGenerate:
    def test_single_record_conditions_on_it_regardless_of_alpha(self):
        for alpha in (0.0, 0.5, 1.0):
            backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "b ", finish_reason=FinishReason.LENGTH)]))
            momentum(history_of("ONLY"), case1(alpha=alpha), 3, backend)
            assert all("ONLY" in r.prompt_text for r in backend.requests)

    def test_alpha_zero_matches_vanilla_call_log(self):
        history = history_of("p0", "p1", "p2")
        gen = case1(alpha=0.0)
        mom_backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "t ", finish_reason=FinishReason.LENGTH)]))
        van_backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "t ", finish_reason=FinishReason.LENGTH)]))
        mom = momentum(history, gen, 11, mom_backend)
        van = write_candidates(history, gen, van_backend, momentum=False, seed=11)[0]
        assert mom == van
        assert mom_backend.requests == van_backend.requests
        assert all("p2" in r.prompt_text for r in mom_backend.requests)

    def test_sources_follow_sampled_indices(self):
        history = history_of("AAA", "BBB", "CCC")
        gen = case1(alpha=1.0)
        backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "x ", finish_reason=FinishReason.LENGTH)]))
        momentum(history, gen, 5, backend)
        plan = draw_plan(momentum_weights(1.0, 2), 3, substream(5, STREAM_CANDIDATES, 2, 0))
        got = [r.prompt_text for r in backend.requests]
        assert len(got) == len(plan)
        for source, prompt in zip(plan, got):
            assert prompt.startswith(REFINE_PROMPT.format(prompt=history[source].prompt_text))

    def test_case2_sampled_record_travels_with_its_own_gradient(self):
        history = history_of("p0", "p1", gradients=["grad zero", "grad one"])
        gen = case1(mode="case2_gradient", alpha=1.0)
        backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "x ", finish_reason=FinishReason.LENGTH)]))
        for j in range(4):
            momentum(history, gen, 9, backend, j)
        for request in backend.requests:
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
        backend = Recorder(ScriptedBackend(rules=[ScriptRule("", "b ", finish_reason=FinishReason.LENGTH)]))
        history = history_of("ONLY", gradients=["grad"])
        for j in range(3):
            momentum(history, case1(alpha=0.5, mode=mode), 3, backend, j)
        assert len(backend.requests) == 9


def past_block(text):
    return text.split("<PAST_ITERATIONS>\n")[1].split("\n</PAST_ITERATIONS>")[0]


def concat_conditioning(*prompts):
    """The first refine request of a concat round over ``prompts``: its
    conditioning, since the candidate is still empty."""
    backend = Recorder(ScriptedBackend())
    write_candidates(history_of(*prompts), case1(mode="concat_baseline"), backend)
    return backend.requests[0].prompt_text


class TestConcatPrompt:
    def test_window_covering_all(self):
        assert past_block(concat_conditioning("a", "b", "c")) == "a\nb\nc"

    def test_single_record_appears_once(self):
        assert concat_conditioning("only-once").count("only-once") == 1

    def test_header_verbatim(self):
        assert "Here are the past iterations of this variable" in concat_conditioning("p")


def analyzed(prompt, backend):
    """Run a gradient-mode round over ``prompt`` on a one-example batch,
    ("a", gold "pos"); return the round's history."""
    history = [PromptRecord(prompt)]
    batch = (LabeledExample("a", "pos"),)
    step = optimizer._Round(
        history, case1(mode="case2_gradient"), False, 0, backend, synthetic_binding(n_holdout=0), batch
    )
    SEQUENTIAL.run(step.tasks())
    return history


class TestTextualGradient:
    def test_returns_scripted_completion_verbatim(self):
        backend = ScriptedBackend(default_response="Errors: the prompt ignores sarcasm")
        assert analyzed("p", backend)[-1] == PromptRecord("p", "Errors: the prompt ignores sarcasm")

    def test_rendered_prompt_contains_all_parts(self):
        backend = Recorder(ScriptedBackend(default_response=" neg"))
        analyzed("Classify X", backend)
        (request,) = [r for r in backend.requests if r.request_tag.startswith("analyze/")]
        assert request.request_tag == "analyze/iter0"
        for part in ("Classify X", "input: a", "gold: pos", "predicted: neg"):
            assert part in request.prompt_text
