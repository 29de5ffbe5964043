"""Update steps: candidate selection, tie-breaks, degeneracy."""

from __future__ import annotations

import pytest

from tsgdm import (
    CompletionResult,
    EmptyHistoryError,
    FinishReason,
    GenerationParams,
    OptimizerHistory,
    PromptRecord,
    ScriptRule,
    ScriptedBackend,
    substream,
    update_concat,
    update_mom,
    update_vanilla,
)
from tsgdm.rng import STREAM_CANDIDATES
from conftest import MappedScore


class EnumeratingBackend:
    """Returns a different canned text on each successive call."""

    def __init__(self, texts):
        self.texts = list(texts)
        self.calls = 0
        self.call_log = []

    def complete(self, request):
        self.call_log.append(request)
        text = self.texts[min(self.calls, len(self.texts) - 1)]
        self.calls += 1
        return CompletionResult(text=text, finish_reason=FinishReason.STOP)


def history_of(*prompts):
    history = OptimizerHistory()
    for i, prompt in enumerate(prompts):
        history.append(PromptRecord(iteration=i, prompt_text=prompt))
    return history


def gen_with(k, **kwargs):
    defaults = dict(alpha=0.5, max_total_tokens=4, block_tokens=4, temperature=0.7, candidates=k)
    defaults.update(kwargs)
    return GenerationParams(**defaults)


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
            update_mom(OptimizerHistory(), gen_with(1), lambda p: 0.0, substream(0, 1), ScriptedBackend())

    def test_k1_returns_lone_candidate_unscored(self):
        score = MappedScore({})
        backend = chain_backend()
        prompt, scores = update_mom(history_of("SEED-A"), gen_with(1), score, substream(0, 1), backend)
        assert prompt == "cand-from-A"
        assert scores == []
        assert score.calls == []

    def test_k3_argmax(self):
        backend = EnumeratingBackend(["cand-a", "cand-b", "cand-c"])
        score = MappedScore({"cand-a": 0.2, "cand-b": 0.9, "cand-c": 0.5})
        prompt, scores = update_mom(
            history_of("p0"), gen_with(3), score, substream(0, 1), backend
        )
        assert prompt == "cand-b"
        assert scores == [0.2, 0.9, 0.5]

    def test_tie_breaks_to_lowest_index(self):
        backend = EnumeratingBackend(["first", "second"])
        prompt, scores = update_mom(
            history_of("p0"), gen_with(2), lambda p: 0.9, substream(0, 1), backend
        )
        assert prompt == "first"
        assert scores == [0.9, 0.9]

    def test_k20_generates_twenty_candidates(self):
        backend = ScriptedBackend(default_response="cand")
        update_mom(history_of("p0"), gen_with(20), lambda p: 0.0, substream(1, 1), backend)
        tags = {r.request_tag.split("/")[2] for r in backend.call_log}
        assert tags == {f"cand{j}" for j in range(20)}

    def test_all_zero_scores_returns_first(self):
        backend = ScriptedBackend(default_response="cand")
        prompt, scores = update_mom(
            history_of("p0"), gen_with(3), lambda p: 0.0, substream(2, 1), backend
        )
        assert prompt == "cand"
        assert scores == [0.0, 0.0, 0.0]

    def test_candidates_use_independent_substreams(self):
        # with alpha=1 over two records, different candidates may sample
        # different sources; the same seed must reproduce the same choices
        logs = []
        for _ in range(2):
            backend = ScriptedBackend(
                rules=[ScriptRule("SEED-A", "a "), ScriptRule("SEED-B", "b ")],
            )
            update_mom(
                history_of("SEED-A", "SEED-B"),
                gen_with(8, alpha=1.0),
                lambda p: 0.0,
                substream(123, 1, 1),
                backend,
            )
            logs.append([r.prompt_text for r in backend.call_log])
        assert logs[0] == logs[1]
        sources = {("SEED-A" in p, "SEED-B" in p) for p in logs[0]}
        assert len(sources) > 1  # both records actually get sampled


    @pytest.mark.parametrize("seed", [0, 7, 2**62 + 3])
    def test_a_candidates_own_substream_is_its_spawned_stream(self, seed):
        # run_tsgd derives candidate j's stream inside the candidate's task;
        # update_mom spawns the k streams from the iteration's substream.
        # Both must draw the same numbers.
        for t in (0, 1, 5):
            spawned = substream(seed, STREAM_CANDIDATES, t).spawn(20)
            for j in (0, 3, 19):
                own = substream(seed, STREAM_CANDIDATES, t, j)
                assert own.random(16).tolist() == spawned[j].random(16).tolist()


class TestUpdateVanilla:
    def test_k1_unscored(self):
        score = MappedScore({})
        backend = chain_backend()
        record = PromptRecord(0, "SEED-B")
        prompt, scores = update_vanilla(record, gen_with(1), score, substream(0, 1), backend)
        assert prompt == "cand-from-B"
        assert scores == []
        assert score.calls == []

    def test_k20_count(self):
        backend = ScriptedBackend(default_response="cand")
        update_vanilla(
            PromptRecord(0, "p"), gen_with(20), lambda p: 0.0, substream(0, 1), backend
        )
        assert len(backend.call_log) == 20


class TestAlphaZeroDegeneracy:
    def test_update_level_call_logs_identical(self):
        history = history_of("SEED-A", "SEED-B")
        score = lambda p: {"cand-from-B": 0.8}.get(p, 0.1)
        mom_backend = chain_backend()
        van_backend = chain_backend()
        rng_m = substream(77, 1, 0)
        rng_v = substream(77, 1, 0)
        mom = update_mom(history, gen_with(3, alpha=0.0), score, rng_m, mom_backend)
        van = update_vanilla(history[1], gen_with(3, alpha=0.0), score, rng_v, van_backend)
        assert mom == van
        assert mom_backend.call_log == van_backend.call_log


    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_over_one_record_momentum_is_vanilla_at_any_alpha(self, alpha):
        score = lambda p: 0.1
        mom_backend = chain_backend()
        van_backend = chain_backend()
        mom = update_mom(history_of("SEED-A"), gen_with(3, alpha=alpha), score, substream(5, 1, 0), mom_backend)
        van = update_vanilla(PromptRecord(0, "SEED-A"), gen_with(3, alpha=alpha), score, substream(5, 1, 0), van_backend)
        assert mom == van
        assert mom_backend.call_log == van_backend.call_log

class TestUpdateConcat:
    def test_conditioning_contains_all_history(self):
        backend = ScriptedBackend(default_response="next")
        update_concat(
            history_of("alpha-p", "beta-p", "gamma-p"),
            gen_with(1, mode="concat_baseline"),
            lambda p: 0.0,
            substream(0, 1),
            backend,
        )
        rendered = backend.call_log[0].prompt_text
        assert "alpha-p\nbeta-p\ngamma-p" in rendered
        assert "Here are the past iterations of this variable" in rendered

    def test_empty_history(self):
        with pytest.raises(EmptyHistoryError):
            update_concat(
                OptimizerHistory(),
                gen_with(1, mode="concat_baseline"),
                lambda p: 0.0,
                substream(0, 1),
                ScriptedBackend(),
            )
