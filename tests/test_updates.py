"""Update steps: candidate selection, tie-breaks, degeneracy.

One maker serves every rule (:func:`tsgdm.optimizer._maker`); selection is
checked through :func:`run_tsgd` and :func:`tsgdm.optimizer._argmax`.
"""

from __future__ import annotations

import pytest

from tsgdm import (
    CompletionResult,
    EmptyHistoryError,
    FinishReason,
    GenerationParams,
    OptimizerHistory,
    PromptRecord,
    RunConfig,
    ScriptRule,
    ScriptedBackend,
    run_tsgd,
    substream,
)
from tsgdm.optimizer import _argmax, _maker
from tsgdm.rng import STREAM_CANDIDATES
from conftest import MappedScore


class TagBackend:
    """Names each candidate after its tag: candidate j of any round answers
    ``texts[j]``; forward passes answer " blue"."""

    def __init__(self, texts):
        self.texts = list(texts)
        self.call_log = []

    def complete(self, request):
        self.call_log.append(request)
        if request.request_tag.startswith("refine/"):
            j = int(request.request_tag.split("/")[2].removeprefix("cand"))
            return CompletionResult(text=self.texts[min(j, len(self.texts) - 1)], finish_reason=FinishReason.STOP)
        return CompletionResult(text=" blue", finish_reason=FinishReason.STOP)


def history_of(*prompts):
    history = OptimizerHistory()
    for i, prompt in enumerate(prompts):
        history.append(PromptRecord(iteration=i, prompt_text=prompt))
    return history


def gen_with(k, **kwargs):
    defaults = dict(alpha=0.5, max_total_tokens=4, block_tokens=4, temperature=0.7, candidates=k)
    defaults.update(kwargs)
    return GenerationParams(**defaults)


def one_round(task, gen, backend, score, use_momentum=True):
    """Row 1 of a one-iteration run of ``gen``."""
    config = RunConfig(
        total_iterations=1, batch_size=3, train_size=12, patience=2, hypothesis_preset="custom",
        seed=5, generation=gen, use_momentum=use_momentum,
    )
    return run_tsgd(config, task, backend, score_fn=score).per_iteration[1]


def chain_backend():
    """Each candidate's text depends on the conditioning prompt, so distinct
    sources yield distinct candidates."""
    return ScriptedBackend(
        rules=[
            ScriptRule("SEED-B", "cand-from-B"),
            ScriptRule("SEED-A", "cand-from-A"),
            ScriptRule("Improved instruction:", "cand-generic"),
        ],
        default_response="cand-default",
    )


class TestUpdateMom:
    def test_empty_history(self):
        with pytest.raises(EmptyHistoryError):
            _maker(OptimizerHistory(), gen_with(1), True, 0, ScriptedBackend())

    def test_k3_argmax(self, tiny_task):
        score = MappedScore({"cand-a": 0.2, "cand-b": 0.9, "cand-c": 0.5})
        row = one_round(tiny_task, gen_with(3), TagBackend(["cand-a", "cand-b", "cand-c"]), score)
        assert row.selected_prompt == "cand-b"
        assert row.selected_candidate_index == 1
        assert row.candidate_scores == (0.2, 0.9, 0.5)
        assert _argmax([0.2, 0.9, 0.5]) == (1, 0.9, [0.2, 0.9, 0.5])

    def test_tie_breaks_to_lowest_index(self, tiny_task):
        row = one_round(tiny_task, gen_with(2), TagBackend(["first", "second"]), lambda p: 0.9)
        assert row.selected_prompt == "first"
        assert row.candidate_scores == (0.9, 0.9)
        assert _argmax([0.9, 0.9]) == (0, 0.9, [0.9, 0.9])

    def test_k20_generates_twenty_candidates(self, tiny_task):
        backend = ScriptedBackend(default_response="cand")
        one_round(tiny_task, gen_with(20), backend, lambda p: 0.0)
        tags = {r.request_tag.split("/")[2] for r in backend.call_log if r.request_tag.startswith("refine/")}
        assert tags == {f"cand{j}" for j in range(20)}

    def test_all_zero_scores_returns_first(self, tiny_task):
        backend = ScriptedBackend(default_response="cand")
        row = one_round(tiny_task, gen_with(3), backend, lambda p: 0.0)
        assert row.selected_prompt == "cand"
        assert row.selected_candidate_index == 0
        assert row.candidate_scores == (0.0, 0.0, 0.0)

    def test_candidates_use_independent_substreams(self):
        # with alpha=1 over two records, different candidates may sample
        # different sources; the same seed must reproduce the same choices
        logs = []
        for _ in range(2):
            backend = ScriptedBackend(
                rules=[ScriptRule("SEED-A", "a "), ScriptRule("SEED-B", "b ")],
            )
            make = _maker(history_of("SEED-A", "SEED-B"), gen_with(8, alpha=1.0), True, 123, backend)
            for j in range(8):
                make(j)
            logs.append([r.prompt_text for r in backend.call_log])
        assert logs[0] == logs[1]
        sources = {("SEED-A" in p, "SEED-B" in p) for p in logs[0]}
        assert len(sources) > 1  # both records actually get sampled

    @pytest.mark.parametrize("seed", [0, 7, 2**62 + 3])
    def test_a_candidates_own_substream_is_its_spawned_stream(self, seed):
        # Candidate j derives its stream inside its own task; it draws the
        # same numbers as child j of the round's stream spawned k ways.
        for t in (0, 1, 5):
            spawned = substream(seed, STREAM_CANDIDATES, t).spawn(20)
            for j in (0, 3, 19):
                own = substream(seed, STREAM_CANDIDATES, t, j)
                assert own.random(16).tolist() == spawned[j].random(16).tolist()


class TestUpdateVanilla:
    def test_k20_count(self, tiny_task):
        backend = ScriptedBackend(default_response="cand")
        one_round(tiny_task, gen_with(20), backend, lambda p: 0.0, use_momentum=False)
        assert len([r for r in backend.call_log if r.request_tag.startswith("refine/")]) == 20


def made(make, k):
    return [make(j) for j in range(k)]


class TestAlphaZeroDegeneracy:
    def test_update_level_call_logs_identical(self):
        history = history_of("SEED-A", "SEED-B")
        mom_backend = chain_backend()
        van_backend = chain_backend()
        mom = made(_maker(history, gen_with(3, alpha=0.0), True, 77, mom_backend), 3)
        van = made(_maker(history, gen_with(3, alpha=0.0), False, 77, van_backend), 3)
        assert mom == van == ["cand-from-B"] * 3
        assert mom_backend.call_log == van_backend.call_log

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_over_one_record_momentum_is_vanilla_at_any_alpha(self, alpha):
        mom_backend = chain_backend()
        van_backend = chain_backend()
        mom = made(_maker(history_of("SEED-A"), gen_with(3, alpha=alpha), True, 5, mom_backend), 3)
        van = made(_maker(history_of("SEED-A"), gen_with(3, alpha=alpha), False, 5, van_backend), 3)
        assert mom == van
        assert mom_backend.call_log == van_backend.call_log


class TestUpdateConcat:
    def test_conditioning_contains_all_history(self):
        backend = ScriptedBackend(default_response="next")
        _maker(history_of("alpha-p", "beta-p", "gamma-p"), gen_with(1, mode="concat_baseline"), True, 0, backend)(0)
        rendered = backend.call_log[0].prompt_text
        assert "alpha-p\nbeta-p\ngamma-p" in rendered
        assert "Here are the past iterations of this variable" in rendered

    def test_empty_history(self):
        with pytest.raises(EmptyHistoryError):
            _maker(OptimizerHistory(), gen_with(1, mode="concat_baseline"), True, 0, ScriptedBackend())
