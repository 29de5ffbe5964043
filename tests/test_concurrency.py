"""Concurrent gateway: results never depend on how many calls are in flight.

Every fan-out (batch forward passes, candidate generation, scoring, the
test pass) goes through the trial's one ``CallPool``; these tests pin that a
trial at 3, 8, 16 or 24 calls in flight writes the same bytes as the
sequential trial, that a trial whose backend never waits on I/O runs
sequentially, that record mode stays single-flight and keeps sampled
candidates apart, and that failures surface the way the sequential run
would raise them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import tsgdm.cli as cli
import tsgdm.gateway as gateway
from tsgdm import (
    BudgetExceededError,
    CompletionRequest,
    CompletionResult,
    DomainError,
    FinishReason,
    GenerationParams,
    NetworkError,
    RunConfig,
    synthetic_binding,
)
from tsgdm.cli import parse_config_data, run_experiment
from tsgdm.gateway import (
    CachingBackend,
    SEQUENTIAL,
    CallCounter,
    CallPool,
    ReplayCache,
    ScriptedBackend,
    waits_on_io,
)
from tsgdm.optimizer import draw_plan, momentum_weights, run_tsgd
from tsgdm.rng import STREAM_CANDIDATES, substream
from tsgdm.task import score_prompt
from conftest import UPDATE_RULES, Recorder, run_trial, trial_doc

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


@pytest.mark.parametrize("rule", sorted(UPDATE_RULES))
@pytest.mark.parametrize("model", ["scripted", "tag_sensitive"])
def test_trial_json_is_the_same_at_8_in_flight(tmp_path, monkeypatch, rule, model):
    def backend():
        return TagSensitiveBackend() if model == "tag_sensitive" else None

    sequential = run_trial(tmp_path, "seq", trial_doc(rule, 1), monkeypatch, backend())
    for width in (3, 8, 16, 24):
        concurrent = run_trial(tmp_path, f"par{width}", trial_doc(rule, width), monkeypatch, backend())
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
    cache = ReplayCache()
    inner = SlowBackend(delay_s=0.1)
    request = CompletionRequest("same prompt", 8, 0.7, request_tag="refine/iter0/cand0/block0")
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def worker(i: int) -> None:
        barrier.wait()
        results[i] = CachingBackend(cache, inner).complete(request)

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
    cache = ReplayCache()
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
            CachingBackend(cache, Failing()).complete(request)
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
    assert CachingBackend(cache, SlowBackend(0.0)).complete(request).text == "answer 1"


def test_record_and_budget_stress():
    """More threads than cores and a tiny switch interval: every digest
    reaches the inner backend once, and the budget is never overrun."""
    inner = SlowBackend(delay_s=0.0)
    budget = 700
    counter = CallCounter(CachingBackend(ReplayCache(), inner), max_calls=budget)
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


def small_run_config(mode="case2_gradient", use_momentum=True, temperature=0.7) -> RunConfig:
    return RunConfig(
        total_iterations=4,
        batch_size=4,
        train_size=12,
        patience=5,
        hypothesis_preset="custom",
        seed=3,
        generation=GenerationParams(
            alpha=0.6, max_total_tokens=30, block_tokens=10, temperature=temperature, candidates=5,
            mode=mode,
        ),
        use_momentum=use_momentum,
    )


def test_budget_holds_under_concurrency_and_the_partial_log_matches():
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    budget = 90
    outcomes = []
    for max_inflight in (1, 8):
        model = TagSensitiveBackend()
        with pytest.raises(BudgetExceededError) as excinfo, CallPool(max_inflight) as pool:
            run_tsgd(small_run_config(), task, model, max_lm_calls=budget, pool=pool)
        assert model.calls == budget
        outcomes.append(excinfo.value.partial_run_log)
    sequential, concurrent = outcomes
    assert len(sequential) >= 1
    assert concurrent == sequential


def seeds_by_phase(config: RunConfig) -> dict[str, set[int]]:
    """The ``sample_seed`` values that each phase of a run of ``config``
    sent, keyed by the first part of the tag."""
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    model = Recorder(ScriptedBackend(default_response=" blue"))
    run_tsgd(config, task, model)
    seeds: dict[str, set[int]] = {}
    for request in model.requests:
        seeds.setdefault(request.request_tag.split("/")[0], set()).add(request.sample_seed)
    return seeds


def test_run_stamps_its_seed_on_sampled_requests_only():
    """In every update rule the refine blocks, and in gradient mode the
    analyses, carry the run's seed; the greedy passes carry 0."""
    for rule, (mode, use_momentum) in UPDATE_RULES.items():
        config = dataclasses.replace(small_run_config(mode, use_momentum), seed=41)
        expected = {"refine": {41}, "score": {0}}
        if mode == "case2_gradient":
            expected.update(analyze={41}, predict={0})
        assert seeds_by_phase(config) == expected, rule


@pytest.mark.parametrize("rule", UPDATE_RULES)
def test_a_greedy_run_stamps_no_seed(rule):
    mode, use_momentum = UPDATE_RULES[rule]
    config = dataclasses.replace(small_run_config(mode, use_momentum, temperature=0.0), seed=41)
    assert set().union(*seeds_by_phase(config).values()) == {0}


def test_run_tsgd_result_independent_of_max_inflight():
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    results = []
    for n in (1, 3, 8):
        with CallPool(n) as pool:
            results.append(run_tsgd(small_run_config(), task, TagSensitiveBackend(), pool=pool).to_dict())
    assert results[1] == results[0]
    assert results[2] == results[0]


class HelperSet:
    """The helper threads one ``CallPool`` started, and how many times they
    were joined with every one of them stopped."""

    def __init__(self, threads: list[threading.Thread]) -> None:
        self.threads = threads
        self.joins = 0


@pytest.fixture
def helper_sets(monkeypatch):
    """Each set of helper threads that a ``CallPool`` starts, counting its joins."""
    started: list[HelperSet] = []
    real_start, real_close = CallPool._start_helpers, CallPool.close

    def start(pool: CallPool) -> None:
        real_start(pool)
        started.append(HelperSet(pool._helpers))

    def close(pool: CallPool) -> None:
        threads = pool._helpers
        real_close(pool)
        for helper_set in started:
            if helper_set.threads is threads and not any(thread.is_alive() for thread in threads):
                helper_set.joins += 1

    monkeypatch.setattr(CallPool, "_start_helpers", start)
    monkeypatch.setattr(CallPool, "close", close)
    return started


class FailingAt(TagSensitiveBackend):
    """Raises a ``NetworkError`` for every call whose tag starts with ``prefix``."""

    def __init__(self, prefix: str | None) -> None:
        super().__init__()
        self.prefix = prefix

    def complete(self, request: CompletionRequest) -> CompletionResult:
        if self.prefix is not None and request.request_tag.startswith(self.prefix):
            raise NetworkError(f"{request.request_tag}: connection reset")
        return super().complete(request)


@pytest.mark.parametrize("fails_at", [None, "refine/iter1/", "test/"], ids=["complete", "optimizer", "test-pass"])
def test_a_cli_trial_runs_on_one_call_pool(tmp_path, monkeypatch, helper_sets, fails_at):
    """The optimizer and the test pass share the trial's one pool, whose
    threads start once and stop once, however the trial ends."""
    pools = []
    for name in ("run_tsgd", "score_prompt"):

        def spy(*args, _real=getattr(cli, name), **kwargs):
            pools.append(kwargs.get("pool"))
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    doc = trial_doc("momentum-case2", 4)
    record = json.loads(run_trial(tmp_path, "trial", doc, monkeypatch, FailingAt(fails_at)))
    assert record["status"] == ("complete" if fails_at is None else "failed")
    assert len(pools) == (1 if fails_at == "refine/iter1/" else 2)
    assert isinstance(pools[0], CallPool) and pools[0].max_inflight == 4
    assert all(pool is pools[0] for pool in pools)
    assert [helper_set.joins for helper_set in helper_sets] == [1]


def test_a_failed_test_pass_keeps_the_finished_runs_rows(tmp_path, monkeypatch):
    doc = trial_doc("momentum-case2", 4)
    clean = json.loads(run_trial(tmp_path, "clean", doc, monkeypatch, FailingAt(None)))
    failed = json.loads(run_trial(tmp_path, "failed", doc, monkeypatch, FailingAt("test/")))
    assert failed["status"] == "failed" and failed["error"].startswith("NetworkError: test/")
    assert failed["per_iteration"] == clean["per_iteration"] != []
    log = (tmp_path / "failed" / "run_log.jsonl").read_bytes()
    assert log == (tmp_path / "clean" / "run_log.jsonl").read_bytes()


@pytest.fixture
def widths(monkeypatch):
    """The width of each ``CallPool`` the CLI opens: a run's pool of
    ``parallel_trials``, then one pool per trial."""
    opened = []
    monkeypatch.setattr(cli, "CallPool", lambda width: opened.append(width) or CallPool(width))
    return opened


def test_a_trial_whose_backend_never_waits_starts_no_thread(tmp_path, monkeypatch, helper_sets, widths):
    """The scripted backend, and a record or replay cache in front of it,
    answer from memory: their trials run at width 1 whatever
    ``max_inflight`` says."""
    cache_path = str(tmp_path / "cache.jsonl")
    for cache_mode in ("off", "record", "replay"):
        doc = trial_doc("momentum-case2", 24, cache_mode=cache_mode, cache_path=cache_path)
        run_trial(tmp_path, cache_mode, doc, monkeypatch)
    # (the run's pool, its one trial's pool) for each of the three runs
    assert widths == [1, 1] * 3
    assert helper_sets == []


@pytest.mark.parametrize("cache_mode", ["off", "record"])
def test_a_trial_whose_backend_declares_nothing_keeps_max_inflight(
    tmp_path, monkeypatch, helper_sets, widths, cache_mode
):
    doc = trial_doc("momentum-case2", 24, cache_mode=cache_mode, cache_path=str(tmp_path / "cache.jsonl"))
    run_trial(tmp_path, "trial", doc, monkeypatch, TagSensitiveBackend())
    assert widths == [1, 24]  # the run's pool, then its one trial's
    assert [len(helper_set.threads) for helper_set in helper_sets] == [23]


def test_wrappers_wait_as_their_inner_backend_does():
    """A counter (the benchmark's probes are counters) and a record cache
    wait as what they wrap does; a replay cache never waits."""
    waiting, scripted = TagSensitiveBackend(), ScriptedBackend()
    assert (waits_on_io(waiting), waits_on_io(scripted)) == (True, False)
    for replay in (False, True):
        for inner in (waiting, scripted):
            cached = CallCounter(CachingBackend(ReplayCache(replay=replay), CallCounter(inner)))
            assert waits_on_io(cached) is (not replay and inner is waiting)


@pytest.mark.parametrize("budget", [None, 40])
def test_run_tsgd_leaves_the_callers_pool_open(helper_sets, budget):
    """A finished or failed run leaves the caller's pool running, and the
    caller's next work reuses its threads."""
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)

    def test_pass(pool=SEQUENTIAL) -> float:
        return score_prompt(task, task.initial_prompt, task.test, TagSensitiveBackend(), pool=pool)

    with CallPool(4) as pool:
        try:
            run_tsgd(small_run_config(), task, TagSensitiveBackend(), max_lm_calls=budget, pool=pool)
        except BudgetExceededError:
            assert budget is not None
        assert [helper_set.joins for helper_set in helper_sets] == [0]
        accuracy = test_pass(pool)
        assert [helper_set.joins for helper_set in helper_sets] == [0]
    assert [helper_set.joins for helper_set in helper_sets] == [1]
    assert accuracy == test_pass()


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

    def test_the_caller_and_width_minus_one_helpers_run_items_at_once(self):
        # Each item holds its thread at the barrier, so the barrier opens
        # only when four distinct threads, the caller among them, run items.
        barrier = threading.Barrier(4, timeout=5)
        with CallPool(4) as pool:
            threads = pool.map(lambda i: (barrier.wait(), threading.current_thread())[1], range(4))
        assert len(set(threads)) == 4
        assert threading.main_thread() in threads

    def test_never_more_than_max_inflight_items_at_once(self):
        running = peak = 0
        lock = threading.Lock()

        def work(i: int) -> int:
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.001)
            with lock:
                running -= 1
            return i

        with CallPool(4) as pool:
            assert pool.map(work, range(64)) == list(range(64))
        assert 1 <= peak <= 4

    def test_a_failure_in_the_callers_own_item_waits_for_the_helpers(self):
        helper_started = threading.Event()
        started, finished = [], []

        def work(i: int) -> int:
            started.append(i)
            if threading.current_thread() is threading.main_thread():
                assert helper_started.wait(5)
                raise RuntimeError(f"caller item {i}")
            helper_started.set()
            time.sleep(0.05)
            finished.append(i)
            return i

        with CallPool(2) as pool:
            with pytest.raises(RuntimeError, match="caller item"):
                pool.map(work, range(50))
            # The helper's running item finished before map raised.
            assert finished and len(finished) == len(started) - 1
        assert len(started) < 50

    def test_run_at_width_1_queues_follow_ups_behind_every_queued_task(self):
        order = []

        def step(name, *follow_ups):
            def run():
                order.append(name)
                return follow_ups

            return run

        CallPool(1).run([step("a", step("a1", step("a1x")), step("a2")), step("b", step("b1")), step("c")])
        assert order == ["a", "b", "c", "a1", "a2", "b1", "a1x"]

    def test_run_spreads_the_follow_ups_of_one_task_over_every_worker(self):
        barrier = threading.Barrier(4, timeout=5)
        threads = []

        def meet():
            barrier.wait()
            threads.append(threading.current_thread())

        with CallPool(4) as pool:
            pool.run([lambda: [meet] * 4])
        assert len(set(threads)) == 4

    def test_an_idle_worker_waits_while_a_running_task_may_add_work(self):
        # One worker runs out of work at once; the sleeping task's two
        # follow-ups then need both workers to pass the barrier.
        barrier = threading.Barrier(2, timeout=5)

        def meet():
            barrier.wait()

        def slow():
            time.sleep(0.1)
            return [meet, meet]

        with CallPool(2) as pool:
            pool.run([slow, lambda: None])
        assert barrier.n_waiting == 0 and not barrier.broken

    def test_a_lone_follow_up_of_the_last_running_task_then_a_fan_out_reach_every_worker(self):
        # The shape of a gradient-mode round: the last forward pass queues
        # the analysis alone, and the analysis fans out to every worker.
        barrier = threading.Barrier(4, timeout=5)
        threads = []

        def meet():
            barrier.wait()
            threads.append(threading.current_thread())

        def analyze():
            time.sleep(0.01)
            return [meet] * 4

        def run():
            with CallPool(4) as pool:
                pool.run([lambda: time.sleep(0.01), lambda: [analyze]])

        runner = threading.Thread(target=run)
        runner.start()
        runner.join(10)
        assert not runner.is_alive()
        assert len(set(threads)) == 4

    def test_a_failing_follow_up_stops_new_starts_and_raises_the_lowest_queue_index(self):
        started, finished = [], []

        def step(i, fail=False, sleep=0.0):
            def run():
                started.append(i)
                time.sleep(sleep)
                if fail:
                    raise RuntimeError(f"task {i}")
                finished.append(i)

            return run

        def seed():
            return [step(1, fail=True, sleep=0.05), step(2, sleep=0.1), step(3, fail=True)] + [
                step(i, sleep=0.05) for i in range(4, 50)
            ]

        with CallPool(4) as pool:
            with pytest.raises(RuntimeError, match="task 1"):
                pool.run([seed])
            # Every started task that does not fail finished before run raised.
            assert 2 in finished
            assert sorted(finished) == sorted(set(started) - {1, 3})
        assert len(started) < 49

    def test_run_stress_matches_the_sequential_result(self):
        def tree(seen):
            def node(path):
                def run():
                    seen.append(path)
                    return [node(path + (i,)) for i in range(3)] if len(path) < 5 else []

                return run

            return [node((i,)) for i in range(4)]

        sequential = []
        CallPool(1).run(tree(sequential))
        assert len(sequential) == 4 * (1 + 3 + 9 + 27 + 81)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CallPool(16) as pool:
                for _ in range(5):
                    concurrent = []
                    pool.run(tree(concurrent))
                    assert sorted(concurrent) == sorted(sequential)
        finally:
            sys.setswitchinterval(interval)

    def test_run_stress_with_failures_between_runs_on_one_pool(self):
        # Five clean runs of a tree of follow-ups, each followed by a run
        # whose queue holds two failing tasks behind the tree's roots.
        def tree(seen, failing=False):
            def node(path):
                def run():
                    seen.append(path)
                    return [node(path + (i,)) for i in range(3)] if len(path) < 4 else []

                return run

            def fail(name):
                def run():
                    seen.append(name)
                    raise RuntimeError(name)

                return run

            return [node((i,)) for i in range(4)] + ([fail("task 4"), fail("task 5")] if failing else [])

        sequential = []
        CallPool(1).run(tree(sequential))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CallPool(16) as pool:
                failed_runs = []
                for _ in range(5):
                    concurrent = []
                    pool.run(tree(concurrent))
                    assert sorted(concurrent) == sorted(sequential)
                    failed = []
                    with pytest.raises(RuntimeError, match="task 4"):
                        pool.run(tree(failed, failing=True))
                    failed_runs.append((failed, len(failed)))
                # One more run, so that every failed run has a run after it.
                pool.run(tree([]))
        finally:
            sys.setswitchinterval(interval)
        # No task of a failed run started after that run raised.
        assert [len(failed) for failed, _ in failed_runs] == [count for _, count in failed_runs]

    def test_a_failed_run_leaves_the_pool_ready_for_the_next(self):
        started = []

        def work(i: int) -> int:
            started.append(i)
            if i == 0:
                raise RuntimeError("first")
            time.sleep(0.001)
            return i

        with CallPool(4) as pool:
            with pytest.raises(RuntimeError, match="first"):
                pool.map(work, range(100))
            count = len(started)
            assert pool.map(lambda i: i * i, range(50)) == [i * i for i in range(50)]
            time.sleep(0.05)
        assert count < 100
        assert len(started) == count

    def test_runs_from_two_threads_take_turns(self):
        barrier = threading.Barrier(2, timeout=5)
        order, results = [], {}

        def call(name: str) -> None:
            def work(i: int) -> tuple[str, int]:
                order.append(name)
                time.sleep(0.001)
                return name, i

            barrier.wait()
            results[name] = pool.map(work, range(20))

        with CallPool(4) as pool:
            callers = [threading.Thread(target=call, args=(name,)) for name in "ab"]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(10)
                assert not caller.is_alive()
        assert results == {name: [(name, i) for i in range(20)] for name in "ab"}
        # Every task of one run started before any task of the other.
        assert [name for name, _ in itertools.groupby(order)] in (["a", "b"], ["b", "a"])

    def test_a_pool_left_open_does_not_hold_up_exit(self):
        source = str(Path(gateway.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))}
        code = (
            "from tsgdm.gateway import CallPool\n"
            "pool = CallPool(4)\n"
            "assert pool.map(abs, range(-8, 0)) == list(range(8, 0, -1))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr


def test_scoring_starts_while_other_candidates_still_generate():
    """Candidate 1's refine call waits until candidate 0's first score call
    arrives: only a run that scores a candidate as soon as it is made gets
    past it."""
    first_score = threading.Event()

    class Model:
        def complete(self, request: CompletionRequest) -> CompletionResult:
            tag = request.request_tag
            if tag.startswith("refine/"):
                candidate = tag.split("/")[2]
                if candidate == "cand1" and not first_score.wait(5):
                    raise TimeoutError("candidate 1 was never released by candidate 0's scoring")
                return CompletionResult(f"Name the marker, {candidate}.", FinishReason.STOP, 1, 1)
            if tag == "score/iter0/cand0/ex0":
                first_score.set()
            return CompletionResult(" blue", FinishReason.STOP, 1, 1)

    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    config = RunConfig(
        total_iterations=1,
        batch_size=4,
        train_size=12,
        hypothesis_preset="custom",
        generation=GenerationParams(max_total_tokens=10, block_tokens=10, candidates=2),
    )
    with CallPool(4) as pool:
        result = run_tsgd(config, task, Model(), pool=pool)
    assert len(result.per_iteration) == 2
    assert first_score.is_set()


_ITERATION_RE = re.compile(r"/iter(\d+)/")


@pytest.mark.parametrize("mode", ["case1_meta_prompt", "case2_gradient", "concat_baseline"])
def test_only_gradient_mode_sends_batch_forward_passes(mode):
    """Gradient mode sends |batch| forward passes an iteration. The other
    modes read no batch and send none, so each of their rows counts just
    the initial holdout passes and the refine calls and candidate score
    passes sent so far."""
    tags: list[str] = []
    lock = threading.Lock()
    model = TagSensitiveBackend()

    class Logged:
        def complete(self, request: CompletionRequest) -> CompletionResult:
            with lock:
                tags.append(request.request_tag)
            return model.complete(request)

    gen = GenerationParams(alpha=0.6, max_total_tokens=30, block_tokens=10, temperature=0.7, candidates=5, mode=mode)
    config = dataclasses.replace(small_run_config(), generation=gen)
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    with CallPool(4) as pool:
        result = run_tsgd(config, task, Logged(), pool=pool)
    assert len(result.per_iteration) == config.total_iterations + 1
    assert result.total_lm_calls == len(tags)
    predicts = sorted(tag for tag in tags if tag.startswith("predict/"))
    if mode == "case2_gradient":
        rounds, batch = range(config.total_iterations), range(config.batch_size)
        assert predicts == sorted(f"predict/iter{t}/ex{i}" for t in rounds for i in batch)
        return
    assert predicts == []
    k = config.generation.candidates
    refine_rounds = [int(_ITERATION_RE.search(tag)[1]) for tag in tags if tag.startswith("refine/")]
    for row in result.per_iteration:
        refines = sum(1 for t in refine_rounds if t < row.iteration)
        assert row.gateway_calls == len(task.holdout) * (1 + k * row.iteration) + refines


_REFINE_RE = re.compile(r"refine/iter(\d+)/cand(\d+)/block(\d+)")


def block_source(config: RunConfig, tag: str) -> int:
    """The record a refine block is drawn from: the newest for vanilla and
    in round 0, else the block's entry in its candidate's draw plan."""
    t, j, b = map(int, _REFINE_RE.fullmatch(tag).groups())
    if t == 0 or not config.use_momentum:
        return t
    gen = config.generation
    blocks = math.ceil(gen.max_total_tokens / gen.block_tokens)
    return draw_plan(momentum_weights(gen.alpha, t), blocks, substream(config.seed, STREAM_CANDIDATES, t, j))[b]


class EventLog:
    """Wraps ``inner`` and logs ("start", tag) and ("end", tag) around each call."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.events: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
            self.events.append(("start", request.request_tag))
        result = self.inner.complete(request)
        with self._lock:
            self.events.append(("end", request.request_tag))
        return result

    def index(self, kind: str, tag: str) -> int:
        return self.events.index((kind, tag))

    def refine_starts(self, t: int) -> list[tuple[int, str]]:
        return [(i, tag) for i, (kind, tag) in enumerate(self.events) if kind == "start" and tag.startswith(f"refine/iter{t}/")]


@pytest.mark.parametrize("use_momentum", [True, False])
def test_gradient_mode_queues_each_call_after_what_it_reads(use_momentum):
    """At 8 in flight, each analysis starts after every forward pass of its
    batch has returned, and each refine block drawn from the round's newest
    record starts after that analysis returned. A momentum block drawn from
    an older record may start earlier; vanilla draws only the newest."""
    log = EventLog(TagSensitiveBackend())
    config = dataclasses.replace(small_run_config(), use_momentum=use_momentum)
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    with CallPool(8) as pool:
        run_tsgd(config, task, log, pool=pool)
    older = 0
    for t in range(config.total_iterations):
        analyze, analyzed = log.index("start", f"analyze/iter{t}"), log.index("end", f"analyze/iter{t}")
        predicts = [i for i, (kind, tag) in enumerate(log.events) if kind == "end" and tag.startswith(f"predict/iter{t}/")]
        assert len(predicts) == config.batch_size
        assert max(predicts) < analyze
        refines = log.refine_starts(t)
        newest = [i for i, tag in refines if block_source(config, tag) == t]
        older += len(refines) - len(newest)
        assert newest and min(newest) > analyzed
    # A momentum run drew older records, so both rules were checked.
    assert bool(older) == use_momentum


def test_older_source_blocks_start_while_the_analysis_runs():
    """At 8 in flight, a momentum candidate sends its blocks drawn from older
    records before the round's analysis returns. Each analysis of a round
    >= 1 is held until a refine block of its round arrives, so the check
    does not rest on timing; a run that held every block back would wait
    out the timeout instead."""
    arrived = {t: threading.Event() for t in range(3)}

    class HoldingAnalysis(TagSensitiveBackend):
        def complete(self, request: CompletionRequest) -> CompletionResult:
            found = re.match(r"(refine|analyze)/iter(\d+)", request.request_tag)
            if found:
                t = int(found[2])
                if found[1] == "refine":
                    arrived[t].set()
                elif t >= 1:
                    arrived[t].wait(5)
            return super().complete(request)

    log = EventLog(HoldingAnalysis())
    config = dataclasses.replace(
        small_run_config(), total_iterations=3, generation=dataclasses.replace(small_run_config().generation, candidates=6)
    )
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    with CallPool(8) as pool:
        run_tsgd(config, task, log, pool=pool)
    early = {
        t: [tag for i, tag in log.refine_starts(t) if i < log.index("end", f"analyze/iter{t}")]
        for t in range(1, config.total_iterations)
    }
    assert any(early.values())
    assert all(block_source(config, tag) < t for t, tags in early.items() for tag in tags)


def test_parking_stress_matches_the_sequential_run():
    """Candidates park and the analysis resumes them while threads switch
    as often as the interpreter allows. A park lost between the check and
    the analysis marking its record ready would leave a candidate
    unwritten, and a candidate resumed twice would send extra calls; either
    changes the result."""
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(4):
            config = dataclasses.replace(small_run_config(), seed=seed, total_iterations=3)
            sequential = run_tsgd(config, task, TagSensitiveBackend(delay_s=0.0))
            with CallPool(12) as pool:
                assert run_tsgd(config, task, TagSensitiveBackend(delay_s=0.0), pool=pool) == sequential
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("width", [1, 8])
def test_a_failed_analysis_ends_the_run_and_leaves_the_pool_clean(width):
    """An analysis that raises in round 1 ends the run with that error and
    the rows of the rounds before it, however many older-source blocks are
    out. No task is left running, nothing reaches the backend afterwards,
    and the same pool then runs a clean queue."""

    class FailingAnalysis(TagSensitiveBackend):
        def complete(self, request: CompletionRequest) -> CompletionResult:
            if request.request_tag == "analyze/iter1":
                raise NetworkError("analysis lost")
            return super().complete(request)

    config = small_run_config()
    task = synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)
    clean = run_tsgd(config, task, TagSensitiveBackend())
    backend = FailingAnalysis()
    with CallPool(width) as pool:
        with pytest.raises(NetworkError, match="analysis lost") as caught:
            run_tsgd(config, task, backend, pool=pool)
        assert caught.value.partial_run_log == clean.per_iteration[:2]
        calls = backend.calls
        assert pool._running == 0
        time.sleep(0.05)
        assert backend.calls == calls
        assert pool.map(lambda i: i * i, range(32)) == [i * i for i in range(32)]
        assert run_tsgd(config, task, TagSensitiveBackend(), pool=pool) == clean
