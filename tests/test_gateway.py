"""Gateway contract: requests, scripted backend, cache, remote retries."""

from __future__ import annotations

import json

import pytest
import requests

from tsgdm import (
    AuthError,
    BudgetExceededError,
    CacheMissError,
    CachingBackend,
    CallCounter,
    CompletionRequest,
    CompletionResult,
    DomainError,
    FinishReason,
    NetworkError,
    ProtocolError,
    RemoteBackend,
    ReplayCache,
    ScriptRule,
    ScriptedBackend,
)
from tsgdm.cli import BackendSettings

from conftest import Recorder

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

    def test_default_response(self):
        backend = ScriptedBackend(default_response="fallback")
        result = backend.complete(REQ)
        assert result.text == "fallback"
        assert result.finish_reason is FinishReason.STOP

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

    def test_complete_answers_directly(self):
        backend = ScriptedBackend(default_response="via helper")
        assert backend.complete(REQ).text == "via helper"


class TestReplayCache:
    def test_record_then_replay_zero_inner_calls(self):
        inner = Recorder(ScriptedBackend(default_response="cached text"))
        cache = ReplayCache()
        recorded = CachingBackend(cache, inner).complete(REQ)
        assert len(inner.requests) == 1

        replay = ReplayCache(replay=True, entries=dict(cache.entries))
        fresh_inner = Recorder(ScriptedBackend(default_response="should not be used"))
        replayed = CachingBackend(replay, fresh_inner).complete(REQ)
        assert replayed == recorded
        assert fresh_inner.requests == []

    def test_record_mode_memoizes_repeat_digests(self):
        inner = Recorder(ScriptedBackend(default_response="once"))
        cache = ReplayCache()
        first = CachingBackend(cache, inner).complete(REQ)
        tagged = CompletionRequest("hello", 8, 0.0, request_tag="different tag")
        second = CachingBackend(cache, inner).complete(tagged)
        assert first == second
        assert len(inner.requests) == 1
        assert len(cache) == 1

    def test_replay_miss_raises(self):
        cache = ReplayCache(replay=True)
        with pytest.raises(CacheMissError):
            CachingBackend(cache, ScriptedBackend()).complete(REQ)

    def test_save_load_round_trip_and_stable_bytes(self, tmp_path):
        cache = ReplayCache()
        inner = ScriptedBackend(default_response="persisted")
        for prompt in ("b", "a", "c"):
            CachingBackend(cache, inner).complete(CompletionRequest(prompt, 4, 0.0))
        path = tmp_path / "cache.jsonl"
        cache.save(path)
        first_bytes = path.read_bytes()
        cache.save(path)
        assert path.read_bytes() == first_bytes

        loaded = ReplayCache.load(path)
        assert loaded.replay
        assert loaded.entries == cache.entries
        result = CachingBackend(loaded, ScriptedBackend()).complete(CompletionRequest("a", 4, 0.0))
        assert result.text == "persisted"

    def test_save_writes_the_backend_identity_as_a_header(self, tmp_path):
        identity = {"kind": "openai", "base_url": "http://localhost:9/v1", "model": "m", "chat": False}
        cache = ReplayCache(backend=identity)
        CachingBackend(cache, ScriptedBackend(default_response="x")).complete(REQ)
        path = tmp_path / "cache.jsonl"
        cache.save(path)
        assert json.loads(path.read_text(encoding="utf-8").splitlines()[0]) == {"backend": identity}
        loaded = ReplayCache.load(path)
        assert (loaded.backend, loaded.entries) == (identity, cache.entries)

    def test_a_file_without_a_header_loads_without_an_identity(self, tmp_path):
        cache = ReplayCache()
        CachingBackend(cache, ScriptedBackend(default_response="x")).complete(REQ)
        path = tmp_path / "cache.jsonl"
        cache.save(path)
        assert ReplayCache.load(path).backend is None

    @pytest.mark.parametrize("mode, stored", [("record", False), ("record", True), ("replay", True), ("replay", False)])
    def test_a_request_is_hashed_once(self, monkeypatch, mode, stored):
        hashed = []
        digest = CompletionRequest.digest
        monkeypatch.setattr(CompletionRequest, "digest", lambda request: hashed.append(request) or digest(request))
        entries = {digest(REQ): CompletionResult("x", FinishReason.STOP)} if stored else {}
        backend = CachingBackend(ReplayCache(replay=mode == "replay", entries=entries), ScriptedBackend(default_response="y"))
        try:
            backend.complete(REQ)
        except CacheMissError:
            assert (mode, stored) == ("replay", False)
        assert hashed == [REQ]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for line in ("not json", json.dumps({"backend": 5})):
            path.write_text(line + "\n", encoding="utf-8")
            with pytest.raises(ProtocolError, match=f"{path.name}:1: "):
                ReplayCache.load(path)

    def test_load_takes_a_row_as_exactly_the_result_fields(self, tmp_path):
        """A row missing a token count loads it as 0; a row with a key the
        result does not have, a text that is not a string, a count that is
        not an integer, or a row that is not an object is refused, naming
        its line."""
        path = tmp_path / "cache.jsonl"
        header = json.dumps({"backend": {"kind": "scripted"}}) + "\n"
        row = {"digest": "d", "text": "x", "finish_reason": "stop"}
        path.write_text(header + json.dumps(row) + "\n", encoding="utf-8")
        assert ReplayCache.load(path).entries == {"d": CompletionResult("x", FinishReason.STOP, 0, 0)}
        good = {"digest": "d", "text": "x", "finish_reason": "stop", "prompt_tokens": 1, "completion_tokens": 2}
        for row in (
            {**good, "model": "m"},
            {**good, "text": 5},
            {**good, "prompt_tokens": 1.5},
            {**good, "completion_tokens": "2"},
            {**good, "completion_tokens": True},
            "d",
            [good],
        ):
            path.write_text(header + json.dumps(row) + "\n", encoding="utf-8")
            with pytest.raises(ProtocolError, match=f"{path.name}:2: bad cache line"):
                ReplayCache.load(path)

    def test_record_keeps_sampled_candidates_apart(self):
        inner = Recorder(ScriptedBackend(default_response="sample"))
        cache = ReplayCache()
        for j in range(3):
            CachingBackend(cache, inner).complete(CompletionRequest("p", 4, 0.7, request_tag=f"refine/cand{j}"))
        assert len(inner.requests) == 3
        assert len(cache) == 3

    def test_save_replaces_the_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("stale\n", encoding="utf-8")
        cache = ReplayCache()
        CachingBackend(cache, ScriptedBackend(default_response="x")).complete(REQ)
        cache.save(path)
        assert ReplayCache.load(path).entries == cache.entries
        assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]

    def test_caching_backend_adapter(self):
        inner = Recorder(ScriptedBackend(default_response="adapted"))
        backend = CachingBackend(ReplayCache(), inner)
        assert backend.complete(REQ).text == "adapted"
        assert backend.complete(REQ).text == "adapted"
        assert len(inner.requests) == 1


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
    settings = BackendSettings(
        kind="openai",
        base_url="https://fake.example/v1",
        model="fake-model",
        chat=chat,
        max_attempts=max_attempts,
    )
    session = FakeSession(outcomes)
    sleeps = []
    backend = RemoteBackend(settings, session=session, sleep=sleeps.append, rand=rand)
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
        wide = RemoteBackend(BackendSettings(kind="openai", base_url="https://fake.example/v1", model="m", max_inflight=32))
        narrow = RemoteBackend(BackendSettings(kind="openai", base_url="https://fake.example/v1", model="m", max_inflight=2))
        assert wide._session.get_adapter(url).poolmanager.connection_pool_kw["maxsize"] == 32
        assert narrow._session.get_adapter(url).poolmanager.connection_pool_kw["maxsize"] == 10

    def test_a_trailing_slash_leaves_the_url_but_not_the_settings(self):
        # A record file's header holds base_url as configured.
        settings = BackendSettings(kind="openai", base_url="https://fake.example/v1/", model="m")
        session = FakeSession([FakeResponse(200, chat_body("ok"))])
        assert RemoteBackend(settings, session=session).complete(REQ).text == "ok"
        assert session.requests[0]["url"] == "https://fake.example/v1/chat/completions"
        assert settings.base_url == "https://fake.example/v1/"

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

    @pytest.mark.parametrize("usage", [[1], "n/a", 3])
    def test_usage_that_is_not_an_object_is_protocol_error(self, usage):
        backend, _, _ = make_remote([FakeResponse(200, body={**chat_body("ok"), "usage": usage})])
        with pytest.raises(ProtocolError, match="usage"):
            backend.complete(REQ)

    def test_non_json_body_is_protocol_error(self):
        backend, _, _ = make_remote([FakeResponse(200, body=None, text="<html>")])
        with pytest.raises(ProtocolError):
            backend.complete(REQ)

    def test_unknown_finish_reason_is_protocol_error(self):
        backend, _, _ = make_remote([FakeResponse(200, chat_body("ok", finish="content_filter"))])
        with pytest.raises(ProtocolError, match="content_filter"):
            backend.complete(REQ)

    def test_missing_or_null_finish_reason_is_stop(self):
        missing = chat_body("ok")
        del missing["choices"][0]["finish_reason"]
        backend, _, _ = make_remote(
            [FakeResponse(200, missing), FakeResponse(200, chat_body("ok", finish=None))]
        )
        assert backend.complete(REQ).finish_reason is FinishReason.STOP
        assert backend.complete(REQ).finish_reason is FinishReason.STOP

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
