"""Concurrent gateway: results never depend on how many calls are in flight.

Every fan-out (batch forward passes, candidate generation, scoring) goes
through one ``CallPool``; these tests pin that a trial at 8 calls in flight
writes the same bytes as the sequential trial, that record mode stays
single-flight and keeps sampled candidates apart, and that failures surface
the way the sequential run would raise them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
import sys
import threading
import time

import pytest

import tsgdm.cli as cli
from tsgdm import (
    BudgetExceededError,
    CompletionRequest,
    CompletionResult,
    DomainError,
    FinishReason,
    GenerationParams,
    RunConfig,
    synthetic_binding,
)
from tsgdm.cli import parse_config_data, run_experiment
from tsgdm.gateway import (
    CacheMode,
    CachingBackend,
    CallCounter,
    CallPool,
    ReplayCache,
    ScriptedBackend,
    cached_complete,
)
from tsgdm.optimizer import run_tsgd

KEY_WORDS = ("copy", "marker", "word", "exactly")
VOCAB = KEY_WORDS + ("read", "item", "answer", "then", "name", "label", "final", "check")
_MARKER_RE = re.compile(r"carries marker (\w+)")


class TagSensitiveBackend:
    """Deterministic stand-in for a sampling model.

    Sampled requests (temperature > 0) answer from a hash of the prompt and
    the request tag, so the k candidates of an iteration differ; greedy
    requests answer from the prompt alone, more often right when the
    instruction holds key words. A hash-derived sleep of up to
    ``3 * delay_s`` shuffles the order in which concurrent calls finish.
    A different ``salt`` draws different samples, as a live model does
    from one trial to the next.
    """

    def __init__(self, delay_s: float = 0.0003, salt: str = "") -> None:
        self.delay_s = delay_s
        self.salt = salt
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
            self.calls += 1
        sampled = request.temperature > 0.0
        material = request.prompt_text + "\x00" + (self.salt + request.request_tag if sampled else "")
        key = hashlib.sha256(material.encode("utf-8")).digest()
        time.sleep(self.delay_s * (key[0] % 4))
        if sampled:
            count = min(request.max_new_tokens, 3)
            words = [VOCAB[b % len(VOCAB)] for b in key[1 : 1 + count]]
            reason = FinishReason.LENGTH if key[5] % 2 else FinishReason.STOP
            text = "".join(" " + word for word in words)
            tokens = request.max_new_tokens if reason is FinishReason.LENGTH else count
        else:
            instruction = request.prompt_text.rsplit("\n", 2)[0].lower()
            quality = sum(word in instruction for word in KEY_WORDS) / len(KEY_WORDS)
            found = _MARKER_RE.search(request.prompt_text)
            gold = found.group(1) if found else "blue"
            right = key[1] / 256 < 0.4 + 0.5 * quality
            text = " " + (gold if right else ("red" if gold == "blue" else "blue"))
            reason, tokens = FinishReason.STOP, 1
        return CompletionResult(text, reason, len(request.prompt_text.split()), tokens)


# (generation mode, use_momentum); the concat baseline has its own mode.
UPDATE_RULES = {
    "vanilla-case1": ("case1_meta_prompt", False),
    "vanilla-case2": ("case2_gradient", False),
    "momentum-case1": ("case1_meta_prompt", True),
    "momentum-case2": ("case2_gradient", True),
    "concat": ("concat_baseline", True),
}


def trial_doc(rule: str, max_inflight: int, **backend) -> dict:
    mode, momentum = UPDATE_RULES[rule]
    return {
        "run": {
            "total_iterations": 3,
            "batch_size": 4,
            "train_size": 12,
            "patience": 4,
            "hypothesis_preset": "custom",
            "use_momentum": momentum,
            "generation": {
                "alpha": 0.6,
                "candidates": 5,
                "block_tokens": 10,
                "max_total_tokens": 30,
                "temperature": 0.7,
                "mode": mode,
            },
        },
        "task": {"synthetic_train": 12, "synthetic_holdout": 6, "synthetic_test": 6},
        "backend": {"max_inflight": max_inflight, **backend},
    }


def run_trial(tmp_path, name: str, doc: dict, monkeypatch, model=None) -> bytes:
    """Run the one-trial ``doc`` through ``run_experiment`` and return the
    trial file's bytes; ``model`` replaces the scripted backend."""
    if model is not None:
        monkeypatch.setattr(cli, "ScriptedBackend", lambda **_: model)
    config = parse_config_data({**doc, "output_dir": str(tmp_path / name)})
    run_experiment(config, echo=lambda *a: None)
    return (tmp_path / name / "trial_000.json").read_bytes()


@pytest.mark.parametrize("rule", sorted(UPDATE_RULES))
@pytest.mark.parametrize("model", ["scripted", "tag_sensitive"])
def test_trial_json_is_the_same_at_8_in_flight(tmp_path, monkeypatch, rule, model):
    def backend():
        return TagSensitiveBackend() if model == "tag_sensitive" else None

    sequential = run_trial(tmp_path, "seq", trial_doc(rule, 1), monkeypatch, backend())
    concurrent = run_trial(tmp_path, "par", trial_doc(rule, 8), monkeypatch, backend())
    assert concurrent == sequential


@pytest.mark.parametrize("rule", ["concat", "momentum-case2", "vanilla-case1"])
def test_record_at_8_in_flight_then_replay(tmp_path, monkeypatch, rule):
    cache_path = tmp_path / "cache.jsonl"
    uncached = run_trial(tmp_path, "live", trial_doc(rule, 8), monkeypatch, TagSensitiveBackend())
    recorded = run_trial(
        tmp_path, "record",
        trial_doc(rule, 8, cache_mode="record", cache_path=str(cache_path)),
        monkeypatch, TagSensitiveBackend(),
    )
    # Sampled requests are keyed by their tag, so recording keeps the k
    # candidates apart and the recorded run is the live run.
    assert recorded == uncached

    poisoned = TagSensitiveBackend()
    replayed = run_trial(
        tmp_path, "replay",
        trial_doc(rule, 8, cache_mode="replay", cache_path=str(cache_path)),
        monkeypatch, poisoned,
    )
    assert replayed == recorded
    assert poisoned.calls == 0


def test_record_keeps_the_draws_of_different_trials_apart(tmp_path, monkeypatch):
    # At iteration 0 every trial sends the same refine prompts under the same
    # tags; only the trial's seed tells their draws apart in a shared cache.
    def trial_files(name: str, **backend) -> list[bytes]:
        salts = iter(["trial0", "trial1"])
        monkeypatch.setattr(cli, "ScriptedBackend", lambda **_: TagSensitiveBackend(salt=next(salts)))
        doc = {**trial_doc("vanilla-case1", 8, **backend), "trials": 2, "output_dir": str(tmp_path / name)}
        run_experiment(parse_config_data(doc), echo=lambda *a: None)
        return [(tmp_path / name / f"trial_{i:03d}.json").read_bytes() for i in range(2)]

    live = trial_files("live")
    assert live[0] != live[1]
    cache_path = tmp_path / "cache.jsonl"
    assert trial_files("record", cache_mode="record", cache_path=str(cache_path)) == live


class SlowBackend:
    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
            self.calls += 1
            call = self.calls
        time.sleep(self.delay_s)
        return CompletionResult(f"answer {call}", FinishReason.STOP, 1, 2)


def test_record_is_single_flight_per_digest():
    threads = 8
    cache = ReplayCache(mode=CacheMode.RECORD)
    inner = SlowBackend(delay_s=0.1)
    request = CompletionRequest("same prompt", 8, 0.7, request_tag="refine/iter0/cand0/block0")
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def worker(i: int) -> None:
        barrier.wait()
        results[i] = cached_complete(cache, inner, request)

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert inner.calls == 1
    assert results == [results[0]] * threads
    assert len(cache) == 1


def test_single_flight_waiters_share_a_failure_and_nothing_is_stored():
    cache = ReplayCache(mode=CacheMode.RECORD)
    entered = threading.Event()
    release = threading.Event()

    class Failing:
        calls = 0

        def complete(self, request):
            Failing.calls += 1
            entered.set()
            release.wait(5)
            raise RuntimeError("backend down")

    request = CompletionRequest("p", 4, 0.0)
    errors = []

    def worker() -> None:
        try:
            cached_complete(cache, Failing(), request)
        except RuntimeError as exc:
            errors.append(str(exc))

    leader = threading.Thread(target=worker)
    leader.start()
    entered.wait(5)
    follower = threading.Thread(target=worker)
    follower.start()
    time.sleep(0.05)
    release.set()
    for thread in (leader, follower):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert errors == ["backend down", "backend down"]
    assert Failing.calls == 1
    assert len(cache) == 0
    assert cached_complete(cache, SlowBackend(0.0), request).text == "answer 1"


def test_record_and_budget_stress():
    """More threads than cores and a tiny switch interval: every digest
    reaches the inner backend once, and the budget is never overrun."""
    inner = SlowBackend(delay_s=0.0)
    budget = 700
    counter = CallCounter(CachingBackend(ReplayCache(mode=CacheMode.RECORD), inner), max_calls=budget)
    requests = [CompletionRequest(f"prompt {i % 50}", 4, 0.0) for i in range(800)]

    def call(request):
        try:
            return counter.complete(request).text
        except BudgetExceededError:
            return None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CallPool(16) as pool:
            answers = pool.map(call, requests)
    finally:
        sys.setswitchinterval(interval)
    assert counter.calls == budget
    assert answers.count(None) == len(requests) - budget
    assert inner.calls == 50
    by_prompt = {}
    for request, answer in zip(requests, answers):
        if answer is not None:
            assert by_prompt.setdefault(request.prompt_text, answer) == answer


def small_run_config() -> RunConfig:
    return RunConfig(
        total_iterations=4,
        batch_size=4,
        train_size=12,
        patience=5,
        hypothesis_preset="custom",
        seed=3,
        generation=GenerationParams(
            alpha=0.6, max_total_tokens=30, block_tokens=10, temperature=0.7, candidates=5,
            mode="case2_gradient",
        ),
    )


def test_budget_holds_under_concurrency_and_the_partial_log_matches():
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    budget = 90
    outcomes = []
    for max_inflight in (1, 8):
        model = TagSensitiveBackend()
        with pytest.raises(BudgetExceededError) as excinfo:
            run_tsgd(small_run_config(), task, model, max_lm_calls=budget, max_inflight=max_inflight)
        assert model.calls == budget
        outcomes.append(excinfo.value.partial_run_log)
    sequential, concurrent = outcomes
    assert len(sequential) >= 1
    assert concurrent == sequential


def test_run_stamps_its_seed_on_sampled_requests_only():
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    model = ScriptedBackend(default_response=" blue")
    run_tsgd(dataclasses.replace(small_run_config(), seed=41), task, model)
    assert {r.sample_seed for r in model.call_log if r.temperature > 0} == {41}
    assert {r.sample_seed for r in model.call_log if r.temperature == 0} == {0}


def test_run_tsgd_result_independent_of_max_inflight():
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    results = [
        run_tsgd(small_run_config(), task, TagSensitiveBackend(), max_inflight=n).to_dict()
        for n in (1, 3, 8)
    ]
    assert results[1] == results[0]
    assert results[2] == results[0]


class TestCallPool:
    def test_results_in_item_order(self):
        with CallPool(4) as pool:
            out = pool.map(lambda i: (time.sleep(0.002 * (5 - i)), i * i)[1], range(6))
        assert out == [0, 1, 4, 9, 16, 25]

    def test_first_failure_in_item_order_after_in_flight_items_finish(self):
        finished = []

        def work(i: int) -> int:
            if i == 1:
                time.sleep(0.05)
                raise ValueError("item 1")
            if i == 2:
                time.sleep(0.1)
                finished.append(i)
            if i == 3:
                raise KeyError("item 3")
            return i

        with CallPool(4) as pool:
            with pytest.raises(ValueError, match="item 1"):
                pool.map(work, range(4))
        assert finished == [2]

    def test_items_queued_behind_a_failure_are_dropped(self):
        started = []

        def work(i: int) -> int:
            started.append(i)
            if i == 0:
                raise RuntimeError("first")
            time.sleep(0.05)
            return i

        with CallPool(2) as pool:
            with pytest.raises(RuntimeError, match="first"):
                pool.map(work, range(50))
        assert len(started) < 50

    def test_sequential_pool_runs_in_the_callers_thread_and_stops_at_a_failure(self):
        seen = []

        def work(i: int) -> int:
            seen.append((i, threading.current_thread() is threading.main_thread()))
            if i == 2:
                raise RuntimeError("stop")
            return i

        with pytest.raises(RuntimeError):
            CallPool(1).map(work, range(5))
        assert seen == [(0, True), (1, True), (2, True)]

    def test_threads_are_reused_across_maps(self):
        names = set()
        with CallPool(3) as pool:
            for _ in range(5):
                pool.map(lambda i: names.add(threading.current_thread().name), range(6))
        assert 1 <= len(names) <= 3

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            CallPool(0)
