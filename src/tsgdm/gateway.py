"""Text-completion gateway.

One request/result contract served by three interchangeable backends: a
remote OpenAI-compatible HTTP endpoint, a deterministic scripted backend for
offline work, and a record/replay cache that wraps either. Call sites only
ever see :func:`complete`; :class:`CallPool` keeps several of them in flight
with results in call order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, TypeVar

import requests
from requests.adapters import HTTPAdapter

from .errors import (
    AuthError,
    BudgetExceededError,
    CacheMissError,
    DomainError,
    NetworkError,
    ProtocolError,
)


class FinishReason(str, Enum):
    """Why the backend stopped emitting tokens."""

    LENGTH = "length"
    STOP = "stop"
    EOS = "eos"


@dataclass(frozen=True)
class CompletionRequest:
    """One generation request.

    ``request_tag`` is a provenance label (e.g. ``refine/iter3/cand5/block2``).
    A sampled request (``temperature > 0``) is one draw among many:
    ``sample_seed`` (the seed of the run that sends it) and the tag together
    name which draw it is, and enter the cache digest as the sample identity.
    Greedy requests have one answer per prompt and their digest ignores both.
    """

    prompt_text: str
    max_new_tokens: int
    temperature: float
    stop_sequences: tuple[str, ...] = ()
    request_tag: str = ""
    sample_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise DomainError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if self.temperature < 0.0:
            raise DomainError(f"temperature must be >= 0, got {self.temperature}")
        object.__setattr__(self, "stop_sequences", tuple(self.stop_sequences))

    def digest(self) -> str:
        """Hex digest over exactly the fields that determine the completion."""
        fields = {
            "prompt_text": self.prompt_text,
            "max_new_tokens": self.max_new_tokens,
            "temperature": self.temperature,
            "stop_sequences": list(self.stop_sequences),
        }
        if self.temperature > 0.0:
            fields["sample"] = [self.sample_seed, self.request_tag]
        payload = json.dumps(fields, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompletionResult:
    """One generation result, including best-effort token accounting."""

    text: str
    finish_reason: FinishReason
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "finish_reason", FinishReason(self.finish_reason))
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise DomainError("token counts must be >= 0")


class Backend(Protocol):
    """Anything that can answer a completion request."""

    def complete(self, request: CompletionRequest) -> CompletionResult: ...


def complete(backend: Backend, request: CompletionRequest) -> CompletionResult:
    """Run one completion against ``backend``."""
    return backend.complete(request)


_Item = TypeVar("_Item")
_Out = TypeVar("_Out")


class CallPool:
    """Runs a function over items with at most ``max_inflight`` at once and
    returns the results in item order.

    ``max_inflight=1`` runs the items one after another in the caller's
    thread, in order, stopping at the first failure. Otherwise the threads
    are started once, on first use, and reused by every :meth:`map` until
    :meth:`close`. A pooled function must not call :meth:`map` on the same
    pool: it would wait for a slot that only it can free.
    """

    def __init__(self, max_inflight: int = 1) -> None:
        if max_inflight < 1:
            raise DomainError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self._executor: ThreadPoolExecutor | None = None

    def map(self, fn: Callable[[_Item], _Out], items: Iterable[_Item]) -> list[_Out]:
        """``[fn(item) for item in items]``, up to ``max_inflight`` at a time.

        When an item fails, items not yet started are dropped, the running
        ones are waited for, and then the first failure in item order is
        raised; items start in order, so that is the failure a sequential
        run would have raised.
        """
        items = list(items)
        if self.max_inflight == 1 or len(items) < 2:
            return [fn(item) for item in items]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(self.max_inflight, thread_name_prefix="tsgdm-call")
        futures = [self._executor.submit(fn, item) for item in items]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()
        wait(futures)
        for future in futures:
            if not future.cancelled() and future.exception() is not None:
                raise future.exception()
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "CallPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# Runs every map in the caller's thread; the default wherever a pool is optional.
SEQUENTIAL = CallPool(1)


# ---------------------------------------------------------------------------
# scripted backend


@dataclass(frozen=True)
class ScriptRule:
    """One scripted response; ``exact`` compares the whole prompt, otherwise
    the rule fires when ``pattern`` occurs anywhere in the prompt."""

    pattern: str
    response: str
    exact: bool = False
    finish_reason: FinishReason = FinishReason.STOP


class ScriptedBackend:
    """Deterministic offline backend.

    The first matching rule wins; with no match the backend answers
    ``default_response``. Every request is appended to ``call_log`` so tests
    can assert full call sequences. Safe to share across threads.
    """

    def __init__(
        self,
        rules: Iterable[ScriptRule] = (),
        default_response: str = "",
        default_finish_reason: FinishReason = FinishReason.STOP,
    ) -> None:
        self.rules = list(rules)
        self.default_response = default_response
        self.default_finish_reason = FinishReason(default_finish_reason)
        self.call_log: list[CompletionRequest] = []
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
            self.call_log.append(request)
        text = self.default_response
        reason = self.default_finish_reason
        for rule in self.rules:
            hit = request.prompt_text == rule.pattern if rule.exact else rule.pattern in request.prompt_text
            if hit:
                text = rule.response
                reason = rule.finish_reason
                break
        # A length stop means the whole budget was spent; otherwise report a
        # crude whitespace token count so accounting stays monotone.
        if reason is FinishReason.LENGTH:
            completion_tokens = request.max_new_tokens
        else:
            completion_tokens = min(len(text.split()), request.max_new_tokens)
        return CompletionResult(
            text=text,
            finish_reason=reason,
            prompt_tokens=len(request.prompt_text.split()),
            completion_tokens=completion_tokens,
        )


# ---------------------------------------------------------------------------
# remote backend


@dataclass
class RemoteConfig:
    """Connection settings for an OpenAI-compatible endpoint.

    ``chat=True`` speaks the chat-completions shape, otherwise the plain
    completions shape. The API key is read from the environment variable
    named by ``api_key_env`` at call time, never stored.

    Retry ``n`` waits ``backoff_base_s * 2**(n-1)``, stretched by a random
    share of up to half of itself so that concurrent callers do not retry
    in lockstep, and never less than a 429/503 response's
    ``Retry-After`` seconds. ``max_inflight`` is how many calls may share
    the backend at once; the connection pool keeps at least that many
    connections.
    """

    base_url: str
    model: str
    api_key_env: str = "OPENAI_API_KEY"
    timeout_s: float = 60.0
    chat: bool = True
    max_attempts: int = 4
    backoff_base_s: float = 0.5
    max_inflight: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise DomainError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s <= 0 or self.backoff_base_s < 0:
            raise DomainError("timeout_s must be > 0 and backoff_base_s >= 0")
        if self.max_inflight < 1:
            raise DomainError(f"max_inflight must be >= 1, got {self.max_inflight}")
        self.base_url = self.base_url.rstrip("/")


_FINISH_ALIASES = {
    "length": FinishReason.LENGTH,
    "max_tokens": FinishReason.LENGTH,
    "stop": FinishReason.STOP,
    "stop_sequence": FinishReason.STOP,
    "eos": FinishReason.EOS,
    "eos_token": FinishReason.EOS,
    "end_turn": FinishReason.EOS,
}

_RETRY_STATUSES = frozenset({429, 500, 502, 503, 504})
_RETRY_AFTER_STATUSES = frozenset({429, 503})
# A backoff is stretched by a random share of up to this much of itself.
_BACKOFF_JITTER = 0.5
# urllib3 keeps this many connections per host unless told otherwise.
_DEFAULT_POOL_SIZE = 10


def _retry_after_s(response) -> float:
    """A ``Retry-After`` header in its seconds form, else 0 (the HTTP-date
    form and garbage are ignored)."""
    try:
        value = float(response.headers.get("Retry-After", 0))
    except (TypeError, ValueError):
        return 0.0
    return value if math.isfinite(value) and value > 0 else 0.0


class RemoteBackend:
    """HTTP backend with bounded retries.

    Transient failures (HTTP 429/5xx, timeouts, dropped connections) are
    retried with jittered exponential backoff up to ``max_attempts`` total
    attempts; 401/403 raise :class:`AuthError` immediately, other client
    errors and unparseable bodies raise :class:`ProtocolError`. ``rand``
    draws the jitter share in [0, 1).
    """

    def __init__(
        self,
        config: RemoteConfig,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rand: Callable[[], float] = random.random,
    ) -> None:
        self.config = config
        if session is None:
            session = requests.Session()
            size = max(_DEFAULT_POOL_SIZE, config.max_inflight)
            adapter = HTTPAdapter(pool_connections=size, pool_maxsize=size)
            session.mount("https://", adapter)
            session.mount("http://", adapter)
        self._session = session
        self._sleep = sleep
        self._rand = rand

    def _backoff_s(self, attempt: int, retry_after_s: float) -> float:
        delay = self.config.backoff_base_s * 2 ** (attempt - 1)
        delay *= 1.0 + _BACKOFF_JITTER * self._rand()
        return max(delay, retry_after_s)

    def _endpoint(self) -> str:
        path = "/chat/completions" if self.config.chat else "/completions"
        return self.config.base_url + path

    def _payload(self, request: CompletionRequest) -> dict:
        body: dict = {
            "model": self.config.model,
            "max_tokens": request.max_new_tokens,
            "temperature": request.temperature,
        }
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
        if self.config.chat:
            body["messages"] = [{"role": "user", "content": request.prompt_text}]
        else:
            body["prompt"] = request.prompt_text
        return body

    def _parse(self, data: object) -> CompletionResult:
        try:
            assert isinstance(data, Mapping)
            choice = data["choices"][0]
            if self.config.chat:
                text = choice["message"]["content"]
            else:
                text = choice["text"]
            if text is None:
                text = ""
            raw_reason = choice.get("finish_reason")
            usage = data.get("usage") or {}
            prompt_tokens = int(usage.get("prompt_tokens", 0))
            completion_tokens = int(usage.get("completion_tokens", 0))
        except (AssertionError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProtocolError(f"response body missing expected fields: {exc!r}") from exc
        reason = _FINISH_ALIASES.get(str(raw_reason).lower(), FinishReason.STOP)
        return CompletionResult(
            text=str(text),
            finish_reason=reason,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )

    def complete(self, request: CompletionRequest) -> CompletionResult:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_error: Exception | None = None
        retry_after_s = 0.0
        for attempt in range(self.config.max_attempts):
            if attempt:
                self._sleep(self._backoff_s(attempt, retry_after_s))
            retry_after_s = 0.0
            try:
                response = self._session.post(
                    self._endpoint(),
                    json=self._payload(request),
                    headers=headers,
                    timeout=self.config.timeout_s,
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            status = response.status_code
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {status})")
            if status in _RETRY_STATUSES or status >= 500:
                last_error = NetworkError(f"HTTP {status}")
                if status in _RETRY_AFTER_STATUSES:
                    retry_after_s = _retry_after_s(response)
                continue
            if status >= 400:
                raise ProtocolError(f"HTTP {status}: {response.text[:200]}")
            try:
                data = response.json()
            except ValueError as exc:
                raise ProtocolError(f"response body is not valid JSON: {exc}") from exc
            return self._parse(data)
        raise NetworkError(
            f"gave up after {self.config.max_attempts} attempts: {last_error}"
        )


# ---------------------------------------------------------------------------
# record/replay cache


class CacheMode(str, Enum):
    RECORD = "record"
    REPLAY = "replay"
    PASSTHROUGH = "passthrough"


class ReplayCache:
    """Digest-keyed store of completion results.

    Record mode answers a digest it has seen before from the store without a
    second inner call, so a recorded run is self-consistent and replays
    byte-identically even when the inner backend samples. Record mode is
    single-flight: while one caller asks the inner backend for a digest,
    concurrent callers of the same digest wait for that answer. Replay mode
    never falls through to a live call: a missing digest raises
    :class:`CacheMissError`.
    """

    def __init__(
        self,
        mode: CacheMode | str = CacheMode.RECORD,
        entries: Mapping[str, CompletionResult] | None = None,
    ) -> None:
        self.mode = CacheMode(mode)
        self.entries: dict[str, CompletionResult] = dict(entries or {})
        self._lock = threading.RLock()
        self._inflight: dict[str, Future] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self.entries)

    def lookup(self, request: CompletionRequest) -> CompletionResult | None:
        with self._lock:
            return self.entries.get(request.digest())

    def record(self, request: CompletionRequest, inner: Backend) -> CompletionResult:
        """The stored result for the request's digest, or else the inner
        backend's, stored; exactly one inner call per digest however many
        threads ask at once. Waiters of a failed call get its exception."""
        digest = request.digest()
        with self._lock:
            found = self.entries.get(digest)
            if found is not None:
                return found
            pending = self._inflight.get(digest)
            leader = pending is None
            if leader:
                pending = self._inflight[digest] = Future()
        if not leader:
            return pending.result()
        try:
            result = inner.complete(request)
        except BaseException as exc:
            with self._lock:
                del self._inflight[digest]
            pending.set_exception(exc)
            raise
        with self._lock:
            self.entries[digest] = result
            del self._inflight[digest]
        pending.set_result(result)
        return result

    def save(self, path: str | Path) -> None:
        """Write one JSON object per line, sorted by digest for stable bytes.

        The lines go to a temporary file beside ``path``, synced to disk,
        that then replaces it, so a process or system crash mid-save leaves
        the previous file whole."""
        with self._lock:
            items = sorted(self.entries.items())
        lines = []
        for digest, result in items:
            lines.append(
                json.dumps(
                    {
                        "digest": digest,
                        "text": result.text,
                        "finish_reason": result.finish_reason.value,
                        "prompt_tokens": result.prompt_tokens,
                        "completion_tokens": result.completion_tokens,
                    },
                    sort_keys=True,
                    ensure_ascii=False,
                )
            )
        path = Path(path)
        temp = path.with_name(path.name + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)

    @classmethod
    def load(cls, path: str | Path, mode: CacheMode | str = CacheMode.REPLAY) -> "ReplayCache":
        entries: dict[str, CompletionResult] = {}
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                entries[row["digest"]] = CompletionResult(
                    text=row["text"],
                    finish_reason=FinishReason(row["finish_reason"]),
                    prompt_tokens=int(row.get("prompt_tokens", 0)),
                    completion_tokens=int(row.get("completion_tokens", 0)),
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise ProtocolError(f"{path}:{lineno}: bad cache line: {exc!r}") from exc
        return cls(mode=mode, entries=entries)


def cached_complete(cache: ReplayCache, inner: Backend, request: CompletionRequest) -> CompletionResult:
    """Route one request through ``cache`` in front of ``inner``."""
    if cache.mode is CacheMode.PASSTHROUGH:
        return inner.complete(request)
    if cache.mode is CacheMode.REPLAY:
        found = cache.lookup(request)
        if found is None:
            raise CacheMissError(f"no cached result for digest {request.digest()}")
        return found
    return cache.record(request, inner)


class CachingBackend:
    """Backend view over (cache, inner) for call sites that take one backend."""

    def __init__(self, cache: ReplayCache, inner: Backend) -> None:
        self.cache = cache
        self.inner = inner

    def complete(self, request: CompletionRequest) -> CompletionResult:
        return cached_complete(self.cache, self.inner, request)


class CallCounter:
    """Backend wrapper that counts calls and tokens and can enforce a budget."""

    def __init__(self, inner: Backend, max_calls: int | None = None) -> None:
        if max_calls is not None and max_calls < 0:
            raise DomainError(f"max_calls must be >= 0, got {max_calls}")
        self.inner = inner
        self.max_calls = max_calls
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
            if self.max_calls is not None and self.calls >= self.max_calls:
                raise BudgetExceededError(f"gateway call budget of {self.max_calls} exhausted")
            self.calls += 1
        result = self.inner.complete(request)
        with self._lock:
            self.prompt_tokens += result.prompt_tokens
            self.completion_tokens += result.completion_tokens
        return result
