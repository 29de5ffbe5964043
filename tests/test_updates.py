"""Update steps: candidate selection, tie-breaks, degeneracy.

One round object serves every rule; candidates are written outside a run by
:func:`conftest.write_candidates`, and selection is checked through
:func:`run_tsgd` and :func:`tsgdm.optimizer._argmax`.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgdm import (
    CompletionResult,
    FinishReason,
    GenerationParams,
    PromptRecord,
    RunConfig,
    ScriptRule,
    ScriptedBackend,
    run_tsgd,
    substream,
    synthetic_binding,
)
from tsgdm.gateway import CallPool
from tsgdm.optimizer import _argmax
from tsgdm.rng import STREAM_CANDIDATES
from conftest import HoldoutHits, Recorder, write_candidates


class TagBackend:
    """Names each candidate after its tag: candidate j of any round answers
    ``texts[j]``; forward passes answer " blue"."""

    def __init__(self, texts):
        self.texts = list(texts)

    def complete(self, request):
        if request.request_tag.startswith("refine/"):
            j = int(request.request_tag.split("/")[2].removeprefix("cand"))
            return CompletionResult(text=self.texts[min(j, len(self.texts) - 1)], finish_reason=FinishReason.STOP)
        return CompletionResult(text=" blue", finish_reason=FinishReason.STOP)


class HitMatrix:
    """Answers holdout pass ``score/iter0/cand{j}/ex{i}`` right exactly
    where ``matrix[j][i]`` is true, and every other request " none"."""

    def __init__(self, task, matrix):
        self.holdout = task.holdout
        self.matrix = matrix

    def complete(self, request):
        found = re.fullmatch(r"score/iter0/cand(\d+)/ex(\d+)", request.request_tag)
        if found:
            j, i = map(int, found.groups())
            if self.matrix[j][i]:
                return CompletionResult(text=f" {self.holdout[i].gold_label}", finish_reason=FinishReason.STOP)
        return CompletionResult(text=" none", finish_reason=FinishReason.STOP)


def history_of(*prompts):
    return tuple(PromptRecord(prompt) for prompt in prompts)


def gen_with(k, **kwargs):
    defaults = dict(alpha=0.5, max_total_tokens=4, block_tokens=4, temperature=0.7, candidates=k)
    defaults.update(kwargs)
    return GenerationParams(**defaults)


def one_round(task, gen, backend, hits=(), use_momentum=True):
    """Row 1 of a one-iteration run of ``gen``, with holdout scores
    scripted by :class:`HoldoutHits`."""
    config = RunConfig(
        total_iterations=1, batch_size=3, train_size=12, patience=2, hypothesis_preset="custom",
        seed=5, generation=gen, use_momentum=use_momentum,
    )
    return run_tsgd(config, task, HoldoutHits(backend, task, hits)).per_iteration[1]


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
    def test_k3_argmax(self, tiny_task):
        hits = {"cand-a": 1, "cand-b": 5, "cand-c": 3}
        row = one_round(tiny_task, gen_with(3), TagBackend(["cand-a", "cand-b", "cand-c"]), hits)
        assert row.selected_prompt == "cand-b"
        assert row.selected_candidate_index == 1
        assert row.candidate_scores == (1 / 6, 5 / 6, 3 / 6)
        assert _argmax([0.2, 0.9, 0.5]) == (1, 0.9, [0.2, 0.9, 0.5])

    def test_tie_breaks_to_lowest_index(self, tiny_task):
        row = one_round(tiny_task, gen_with(2), TagBackend(["first", "second"]), {"first": 5, "second": 5})
        assert row.selected_prompt == "first"
        assert row.candidate_scores == (5 / 6, 5 / 6)
        assert _argmax([0.9, 0.9]) == (0, 0.9, [0.9, 0.9])

    def test_k20_generates_twenty_candidates(self, tiny_task):
        backend = Recorder(ScriptedBackend(default_response="cand"))
        one_round(tiny_task, gen_with(20), backend)
        tags = {r.request_tag.split("/")[2] for r in backend.requests if r.request_tag.startswith("refine/")}
        assert tags == {f"cand{j}" for j in range(20)}

    def test_all_zero_scores_returns_first(self, tiny_task):
        backend = ScriptedBackend(default_response="cand")
        row = one_round(tiny_task, gen_with(3), backend)
        assert row.selected_prompt == "cand"
        assert row.selected_candidate_index == 0
        assert row.candidate_scores == (0.0, 0.0, 0.0)

    def test_candidates_use_independent_substreams(self):
        # with alpha=1 over two records, different candidates may sample
        # different sources; the same seed must reproduce the same choices
        logs = []
        for _ in range(2):
            backend = Recorder(ScriptedBackend(rules=[ScriptRule("SEED-A", "a "), ScriptRule("SEED-B", "b ")]))
            write_candidates(history_of("SEED-A", "SEED-B"), gen_with(8, alpha=1.0), backend, seed=123, js=range(8))
            logs.append([r.prompt_text for r in backend.requests])
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


class TestSelection:
    @pytest.mark.parametrize("width", [1, 8])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_selection_is_the_lowest_argmax_of_the_hit_means(self, width, data):
        k = data.draw(st.integers(1, 6), label="k")
        n = data.draw(st.integers(1, 6), label="holdout")
        matrix = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=k, max_size=k))
        task = synthetic_binding(n_train=4, n_holdout=n, n_test=1, seed=7)
        config = RunConfig(
            total_iterations=1, batch_size=3, train_size=4, patience=2, hypothesis_preset="custom",
            seed=5, generation=gen_with(k),
        )
        with CallPool(width) as pool:
            row = run_tsgd(config, task, HitMatrix(task, matrix), pool=pool).per_iteration[1]
        means = [sum(hits) / n for hits in matrix]
        assert row.candidate_scores == (tuple(means) if k > 1 else ())
        assert row.selected_candidate_index == means.index(max(means))
        assert row.holdout_score == max(means)


class TestUpdateVanilla:
    def test_k20_count(self, tiny_task):
        backend = Recorder(ScriptedBackend(default_response="cand"))
        one_round(tiny_task, gen_with(20), backend, use_momentum=False)
        assert len([r for r in backend.requests if r.request_tag.startswith("refine/")]) == 20


class TestAlphaZeroDegeneracy:
    def test_update_level_call_logs_identical(self):
        history = history_of("SEED-A", "SEED-B")
        mom_backend = Recorder(chain_backend())
        van_backend = Recorder(chain_backend())
        mom = write_candidates(history, gen_with(3, alpha=0.0), mom_backend, seed=77, js=range(3))
        van = write_candidates(history, gen_with(3, alpha=0.0), van_backend, False, 77, range(3))
        assert mom == van == ["cand-from-B"] * 3
        assert mom_backend.requests == van_backend.requests

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_over_one_record_momentum_is_vanilla_at_any_alpha(self, alpha):
        mom_backend = Recorder(chain_backend())
        van_backend = Recorder(chain_backend())
        mom = write_candidates(history_of("SEED-A"), gen_with(3, alpha=alpha), mom_backend, seed=5, js=range(3))
        van = write_candidates(history_of("SEED-A"), gen_with(3, alpha=alpha), van_backend, False, 5, range(3))
        assert mom == van
        assert mom_backend.requests == van_backend.requests


class TestUpdateConcat:
    def test_conditioning_contains_all_history(self):
        backend = Recorder(ScriptedBackend(default_response="next"))
        write_candidates(history_of("alpha-p", "beta-p", "gamma-p"), gen_with(1, mode="concat_baseline"), backend)
        rendered = backend.requests[0].prompt_text
        assert "alpha-p\nbeta-p\ngamma-p" in rendered
        assert "Here are the past iterations of this variable" in rendered
