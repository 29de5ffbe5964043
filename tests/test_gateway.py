"""Gateway contract: requests, scripted backend, cache, remote retries."""

from __future__ import annotations

import json

import pytest
import requests

from tsgdm import (
    AuthError,
    BudgetExceededError,
    CacheMissError,
    CacheMode,
    CachingBackend,
    CallCounter,
    CompletionRequest,
    CompletionResult,
    DomainError,
    FinishReason,
    NetworkError,
    ProtocolError,
    RemoteBackend,
    RemoteConfig,
    ReplayCache,
    ScriptRule,
    ScriptedBackend,
    cached_complete,
    complete,
)

REQ = CompletionRequest(prompt_text="hello", max_new_tokens=8, temperature=0.0)

# sha256 of the hand-written canonical payload for REQ, frozen to pin the
# digest format across releases and platforms:
# {"max_new_tokens": 8, "prompt_text": "hello", "stop_sequences": [], "temperature": 0.0}
REQ_DIGEST = "adc84d194bc7abb2ee98e741a862544fa9c6becda965bebeefa694aef97db5fb"


class TestCompletionRequest:
    def test_validation(self):
        with pytest.raises(DomainError):
            CompletionRequest(prompt_text="x", max_new_tokens=0, temperature=0.0)
        with pytest.raises(DomainError):
            CompletionRequest(prompt_text="x", max_new_tokens=1, temperature=-0.1)

    def test_stop_sequences_normalized_to_tuple(self):
        req = CompletionRequest("x", 1, 0.0, stop_sequences=["a", "b"])
        assert req.stop_sequences == ("a", "b")

    def test_digest_frozen_value(self):
        assert REQ.digest() == REQ_DIGEST

    def test_digest_ignores_tag(self):
        tagged = CompletionRequest("hello", 8, 0.0, request_tag="refine/iter3/cand5")
        assert tagged.digest() == REQ.digest()

    def test_digest_sensitive_to_temperature(self):
        warm = CompletionRequest("hello", 8, 0.7, request_tag="")
        hot = CompletionRequest("hello", 8, 1.1, request_tag="")
        assert warm.digest() != hot.digest()
        assert warm.digest() != REQ.digest()

    def test_digest_sensitive_to_stop_sequences(self):
        stopped = CompletionRequest("hello", 8, 0.0, stop_sequences=("\n",))
        assert stopped.digest() != REQ.digest()

    def test_sampled_digest_keys_on_seed_and_tag(self):
        first = CompletionRequest("hello", 8, 0.7, request_tag="refine/iter0/cand0/block0")
        second = CompletionRequest("hello", 8, 0.7, request_tag="refine/iter0/cand1/block0")
        again = CompletionRequest("hello", 8, 0.7, request_tag="refine/iter0/cand0/block0")
        other_run = CompletionRequest("hello", 8, 0.7, request_tag="refine/iter0/cand0/block0", sample_seed=1)
        assert first.digest() != second.digest()
        assert first.digest() == again.digest()
        assert first.digest() != other_run.digest()

    def test_greedy_digest_ignores_the_seed(self):
        assert CompletionRequest("hello", 8, 0.0, sample_seed=5).digest() == REQ.digest()


class TestScriptedBackend:
    def test_first_match_wins(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("ell", "first"), ScriptRule("hello", "second")],
        )
        assert backend.complete(REQ).text == "first"

    def test_exact_match_rule(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("hello", "exact", exact=True), ScriptRule("hell", "sub")],
        )
        assert backend.complete(REQ).text == "exact"
        longer = CompletionRequest("hello there", 8, 0.0)
        assert backend.complete(longer).text == "sub"

    def test_default_response(self):
        backend = ScriptedBackend(default_response="fallback")
        result = backend.complete(REQ)
        assert result.text == "fallback"
        assert result.finish_reason is FinishReason.STOP

    def test_call_log_preserves_order_and_requests(self):
        backend = ScriptedBackend()
        a = CompletionRequest("a", 1, 0.0, request_tag="one")
        b = CompletionRequest("b", 2, 0.5, request_tag="two")
        backend.complete(a)
        backend.complete(b)
        assert backend.call_log == [a, b]

    def test_length_finish_spends_whole_budget(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("hello", "tok ", finish_reason=FinishReason.LENGTH)]
        )
        result = backend.complete(REQ)
        assert result.finish_reason is FinishReason.LENGTH
        assert result.completion_tokens == REQ.max_new_tokens

    def test_completion_tokens_capped_by_budget(self):
        backend = ScriptedBackend(rules=[ScriptRule("hello", "one two three four")])
        result = backend.complete(CompletionRequest("hello", 2, 0.0))
        assert result.completion_tokens == 2

    def test_same_request_same_result(self):
        backend = ScriptedBackend(rules=[ScriptRule("hello", "hi")])
        assert backend.complete(REQ) == backend.complete(REQ)

    def test_module_level_complete_delegates(self):
        backend = ScriptedBackend(default_response="via helper")
        assert complete(backend, REQ).text == "via helper"


class TestReplayCache:
    def test_record_then_replay_zero_inner_calls(self):
        inner = ScriptedBackend(default_response="cached text")
        cache = ReplayCache(mode=CacheMode.RECORD)
        recorded = cached_complete(cache, inner, REQ)
        assert len(inner.call_log) == 1

        replay = ReplayCache(mode=CacheMode.REPLAY, entries=dict(cache.entries))
        fresh_inner = ScriptedBackend(default_response="should not be used")
        replayed = cached_complete(replay, fresh_inner, REQ)
        assert replayed == recorded
        assert fresh_inner.call_log == []

    def test_record_mode_memoizes_repeat_digests(self):
        inner = ScriptedBackend(default_response="once")
        cache = ReplayCache(mode=CacheMode.RECORD)
        first = cached_complete(cache, inner, REQ)
        tagged = CompletionRequest("hello", 8, 0.0, request_tag="different tag")
        second = cached_complete(cache, inner, tagged)
        assert first == second
        assert len(inner.call_log) == 1
        assert len(cache) == 1

    def test_replay_miss_raises(self):
        cache = ReplayCache(mode=CacheMode.REPLAY)
        with pytest.raises(CacheMissError):
            cached_complete(cache, ScriptedBackend(), REQ)

    def test_passthrough_stores_nothing(self):
        inner = ScriptedBackend(default_response="live")
        cache = ReplayCache(mode=CacheMode.PASSTHROUGH)
        cached_complete(cache, inner, REQ)
        cached_complete(cache, inner, REQ)
        assert len(inner.call_log) == 2
        assert len(cache) == 0

    def test_save_load_round_trip_and_stable_bytes(self, tmp_path):
        cache = ReplayCache(mode=CacheMode.RECORD)
        inner = ScriptedBackend(default_response="persisted")
        for prompt in ("b", "a", "c"):
            cached_complete(cache, inner, CompletionRequest(prompt, 4, 0.0))
        path = tmp_path / "cache.jsonl"
        cache.save(path)
        first_bytes = path.read_bytes()
        cache.save(path)
        assert path.read_bytes() == first_bytes

        loaded = ReplayCache.load(path)
        assert loaded.mode is CacheMode.REPLAY
        assert loaded.entries == cache.entries
        result = cached_complete(loaded, ScriptedBackend(), CompletionRequest("a", 4, 0.0))
        assert result.text == "persisted"

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ProtocolError):
            ReplayCache.load(path)

    def test_record_keeps_sampled_candidates_apart(self):
        inner = ScriptedBackend(default_response="sample")
        cache = ReplayCache(mode=CacheMode.RECORD)
        for j in range(3):
            cached_complete(cache, inner, CompletionRequest("p", 4, 0.7, request_tag=f"refine/cand{j}"))
        assert len(inner.call_log) == 3
        assert len(cache) == 3

    def test_save_replaces_the_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("stale\n", encoding="utf-8")
        cache = ReplayCache(mode=CacheMode.RECORD)
        cached_complete(cache, ScriptedBackend(default_response="x"), REQ)
        cache.save(path)
        assert ReplayCache.load(path).entries == cache.entries
        assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]

    def test_caching_backend_adapter(self):
        inner = ScriptedBackend(default_response="adapted")
        backend = CachingBackend(ReplayCache(mode=CacheMode.RECORD), inner)
        assert backend.complete(REQ).text == "adapted"
        assert backend.complete(REQ).text == "adapted"
        assert len(inner.call_log) == 1


class FakeResponse:
    def __init__(self, status_code, body=None, text="", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text or (json.dumps(body) if body is not None else "")
        self.headers = dict(headers or {})

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def chat_body(text, finish="stop"):
    return {
        "choices": [{"message": {"content": text}, "finish_reason": finish}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 3},
    }


def make_remote(outcomes, chat=True, max_attempts=4, rand=lambda: 0.0):
    config = RemoteConfig(
        base_url="https://fake.example/v1",
        model="fake-model",
        chat=chat,
        max_attempts=max_attempts,
        backoff_base_s=0.5,
    )
    session = FakeSession(outcomes)
    sleeps = []
    backend = RemoteBackend(config, session=session, sleep=sleeps.append, rand=rand)
    return backend, session, sleeps


class TestRemoteBackend:
    def test_chat_success_parses_fields(self):
        backend, session, _ = make_remote([FakeResponse(200, chat_body("hi there"))])
        result = backend.complete(REQ)
        assert result == CompletionResult("hi there", FinishReason.STOP, 5, 3)
        sent = session.requests[0]
        assert sent["url"].endswith("/chat/completions")
        assert sent["json"]["messages"] == [{"role": "user", "content": "hello"}]
        assert sent["json"]["max_tokens"] == 8
        assert "stop" not in sent["json"]

    def test_plain_completion_shape(self):
        body = {"choices": [{"text": "plain", "finish_reason": "length"}], "usage": {}}
        backend, session, _ = make_remote([FakeResponse(200, body)], chat=False)
        result = backend.complete(CompletionRequest("hello", 8, 0.0, stop_sequences=("\n",)))
        assert result.text == "plain"
        assert result.finish_reason is FinishReason.LENGTH
        sent = session.requests[0]
        assert sent["url"].endswith("/completions")
        assert sent["json"]["prompt"] == "hello"
        assert sent["json"]["stop"] == ["\n"]

    def test_retries_on_429_then_succeeds_with_backoff(self):
        backend, session, sleeps = make_remote(
            [FakeResponse(429), FakeResponse(429), FakeResponse(200, chat_body("ok"))]
        )
        assert backend.complete(REQ).text == "ok"
        assert len(session.requests) == 3
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_seconds_is_honoured(self, status):
        backend, _, sleeps = make_remote(
            [
                FakeResponse(status, headers={"Retry-After": "3"}),
                FakeResponse(status, headers={"Retry-After": "0.2"}),
                FakeResponse(200, chat_body("ok")),
            ]
        )
        assert backend.complete(REQ).text == "ok"
        # The longer of Retry-After and the backoff schedule.
        assert sleeps == [3.0, 1.0]

    def test_retry_after_date_form_and_other_statuses_fall_back_to_backoff(self):
        backend, _, sleeps = make_remote(
            [
                FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
                FakeResponse(500, headers={"Retry-After": "9"}),
                FakeResponse(200, chat_body("ok")),
            ]
        )
        assert backend.complete(REQ).text == "ok"
        assert sleeps == [0.5, 1.0]

    def test_backoff_jitter_is_bounded(self):
        draws = iter([0.0, 0.5, 0.999])
        backend, _, sleeps = make_remote(
            [FakeResponse(503)] * 3 + [FakeResponse(200, chat_body("ok"))],
            rand=lambda: next(draws),
        )
        assert backend.complete(REQ).text == "ok"
        assert sleeps == pytest.approx([0.5, 1.0 * 1.25, 2.0 * 1.4995])
        for base, slept in zip([0.5, 1.0, 2.0], sleeps):
            assert base <= slept < base * 1.5

    def test_connection_pool_holds_max_inflight(self):
        url = "https://fake.example/v1/chat/completions"
        wide = RemoteBackend(RemoteConfig(base_url="https://fake.example/v1", model="m", max_inflight=32))
        narrow = RemoteBackend(RemoteConfig(base_url="https://fake.example/v1", model="m", max_inflight=2))
        assert wide._session.get_adapter(url).poolmanager.connection_pool_kw["maxsize"] == 32
        assert narrow._session.get_adapter(url).poolmanager.connection_pool_kw["maxsize"] == 10

    def test_retries_timeouts(self):
        backend, session, _ = make_remote(
            [requests.Timeout("slow"), FakeResponse(200, chat_body("ok"))]
        )
        assert backend.complete(REQ).text == "ok"
        assert len(session.requests) == 2

    def test_gives_up_after_max_attempts(self):
        backend, session, _ = make_remote([FakeResponse(503)] * 6, max_attempts=4)
        with pytest.raises(NetworkError):
            backend.complete(REQ)
        assert len(session.requests) == 4

    def test_auth_error_no_retry(self):
        backend, session, _ = make_remote([FakeResponse(401)])
        with pytest.raises(AuthError):
            backend.complete(REQ)
        assert len(session.requests) == 1

    def test_client_error_is_protocol_error(self):
        backend, _, _ = make_remote([FakeResponse(400, text="bad request")])
        with pytest.raises(ProtocolError):
            backend.complete(REQ)

    def test_unparseable_body_is_protocol_error(self):
        backend, _, _ = make_remote([FakeResponse(200, body={"weird": True})])
        with pytest.raises(ProtocolError):
            backend.complete(REQ)

    def test_non_json_body_is_protocol_error(self):
        backend, _, _ = make_remote([FakeResponse(200, body=None, text="<html>")])
        with pytest.raises(ProtocolError):
            backend.complete(REQ)

    def test_api_key_header_from_env(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        backend, session, _ = make_remote([FakeResponse(200, chat_body("ok"))])
        backend.complete(REQ)
        assert session.requests[0]["headers"]["Authorization"] == "Bearer sk-test"


class TestCallCounter:
    def test_counts_calls_and_tokens(self):
        inner = ScriptedBackend(rules=[ScriptRule("hello", "one two")])
        counter = CallCounter(inner)
        counter.complete(REQ)
        counter.complete(REQ)
        assert counter.calls == 2
        assert counter.completion_tokens == 4
        assert counter.prompt_tokens == 2

    def test_budget_enforced(self):
        counter = CallCounter(ScriptedBackend(), max_calls=2)
        counter.complete(REQ)
        counter.complete(REQ)
        with pytest.raises(BudgetExceededError):
            counter.complete(REQ)
        assert counter.calls == 2
