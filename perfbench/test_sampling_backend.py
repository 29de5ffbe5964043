"""Tests of the benchmark's sampling backend.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import time

from tsgdm import RunConfig, ScriptedBackend, run_tsgd, synthetic_binding
from tsgdm.cli import DEFAULT_SCRIPTED_RESPONSE, DEFAULT_SCRIPTED_RULES
from tsgdm.gateway import CompletionRequest, FinishReason
from tsgdm.optimizer import GenerationParams

from sampling_backend import KEY_WORDS, SamplingBackend

REFINE = "Current instruction:\nRead the item, then answer blue or red.\n\nImproved instruction:"


def _forward(instruction: str, item: int, tag: str = "score/ex0") -> CompletionRequest:
    marker = ("blue", "red")[item % 2]
    return CompletionRequest(
        prompt_text=f"{instruction}\nitem {item} carries marker {marker}\nAnswer:",
        max_new_tokens=16,
        temperature=0.0,
        request_tag=tag,
    )


def _sampled(tag: str, prompt: str = REFINE) -> CompletionRequest:
    return CompletionRequest(prompt_text=prompt, max_new_tokens=10, temperature=0.7, request_tag=tag)


def test_same_request_same_answer_in_any_call_order():
    requests = [_forward("Answer blue or red.", i) for i in range(10)]
    requests += [_sampled(f"refine/iter0/cand{j}/block0") for j in range(10)]
    forward = [SamplingBackend(3, base_ms=1.0, per_token_ms=0.05).answer(r) for r in requests]
    backward = [SamplingBackend(3, base_ms=1.0, per_token_ms=0.05).answer(r) for r in reversed(requests)]
    assert forward == backward[::-1]


def test_complete_sleeps_the_simulated_delay():
    slept = []
    backend = SamplingBackend(0, base_ms=2.0, per_token_ms=0.1, sleep=slept.append)
    request = _sampled("refine/iter0/cand0/block0")
    result = backend.complete(request)
    assert (result, slept[0]) == backend.answer(request)
    assert 1.5e-3 <= slept[0] <= 2.5e-3 + 0.1e-3 * result.completion_tokens


def test_oversleep_is_taken_off_the_next_sleep():
    asked = []

    def late_sleep(seconds):
        asked.append(seconds)
        time.sleep(seconds + 0.003)

    backend = SamplingBackend(0, base_ms=5.0, sleep=late_sleep)
    first, second = (_sampled(f"refine/iter0/cand{j}/block0") for j in range(2))
    backend.complete(first)
    backend.complete(second)
    assert asked[0] == backend.answer(first)[1]
    assert asked[1] <= backend.answer(second)[1] - 0.003


def test_zero_latency_never_sleeps():
    def fail(_seconds):
        raise AssertionError("slept")

    SamplingBackend(0, sleep=fail).complete(_sampled("refine/iter0/cand0/block0"))


def test_sampled_requests_with_different_tags_differ():
    backend = SamplingBackend(1)
    texts = {backend.answer(_sampled(f"refine/iter0/cand{j}/block0"))[0].text for j in range(20)}
    assert len(texts) == 20


def test_greedy_requests_ignore_the_tag():
    backend = SamplingBackend(1, base_ms=1.0)
    answers = {backend.answer(_forward("Answer blue or red.", 4, tag=tag)) for tag in ("score/ex0", "test/ex3", "predict")}
    assert len(answers) == 1


def test_seed_changes_samples():
    request = _sampled("refine/iter0/cand0/block0")
    assert SamplingBackend(1).answer(request)[0].text != SamplingBackend(2).answer(request)[0].text


def test_block_stops_early_or_spends_its_budget():
    backend = SamplingBackend(5)
    for j in range(50):
        result, _ = backend.answer(_sampled(f"refine/iter0/cand{j}/block0"))
        words = len(result.text.split())
        assert result.completion_tokens == words
        if result.finish_reason is FinishReason.LENGTH:
            assert words == 10
        else:
            assert 1 <= words < 10


def test_forward_accuracy_rises_with_key_words():
    backend = SamplingBackend(2)

    def accuracy(instruction: str) -> float:
        hits = 0
        for i in range(400):
            request = _forward(instruction, i)
            hits += backend.answer(request)[0].text.strip() == ("blue", "red")[i % 2]
        return hits / 400

    plain = accuracy("Answer now.")
    keyed = accuracy("Copy exactly the last marker word as the label: " + " ".join(KEY_WORDS))
    assert 0.35 < plain < 0.55
    assert 0.9 < keyed < 1.0


def test_requests_repeat_far_less_than_under_the_stock_script():
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=1)
    config = RunConfig(
        total_iterations=2,
        batch_size=4,
        patience=3,
        hypothesis_preset="custom",
        generation=GenerationParams(candidates=5, max_total_tokens=20, block_tokens=10),
    )

    def distinct_ratio(backend) -> float:
        seen = []

        class Recorder:
            def complete(self, request):
                seen.append(request.digest())
                return backend.complete(request)

        run_tsgd(config, task, Recorder())
        return len(set(seen)) / len(seen)

    stock = distinct_ratio(ScriptedBackend(rules=DEFAULT_SCRIPTED_RULES, default_response=DEFAULT_SCRIPTED_RESPONSE))
    sampled = distinct_ratio(SamplingBackend(1))
    assert sampled > 0.8
    assert stock < 0.5
