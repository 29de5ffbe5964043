"""Text-completion gateway.

One request/result contract served by three interchangeable backends: a
remote OpenAI-compatible HTTP endpoint, a deterministic scripted backend for
offline work, and a record/replay cache that wraps either. Call sites only
ever see a backend's ``complete``; :class:`CallPool` keeps several of them in
flight with results in call order.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol, TypeVar

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

if TYPE_CHECKING:
    from .config import BackendSettings


class FinishReason(str, Enum):
    """Why the backend stopped emitting tokens."""

    LENGTH = "length"
    STOP = "stop"
    EOS = "eos"


@dataclass(frozen=True, slots=True)
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
        if self.temperature is None or self.temperature < 0.0:
            raise DomainError(f"temperature must be >= 0, got {self.temperature}")
        if type(self.stop_sequences) is not tuple:
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
    """Anything that can answer a completion request.

    A backend whose calls never wait on I/O sets ``waits_on_io = False``;
    one that declares nothing is taken to wait (see :func:`waits_on_io`).
    """

    def complete(self, request: CompletionRequest) -> CompletionResult: ...


def waits_on_io(backend: Backend) -> bool:
    """Whether ``backend``'s calls wait on I/O, so that keeping several in
    flight saves time; true unless the backend declares otherwise."""
    return getattr(backend, "waits_on_io", True)


_Item = TypeVar("_Item")
_Out = TypeVar("_Out")


# A pooled task: takes no arguments and returns its follow-up tasks, if any.
Task = Callable[[], "Iterable[Task] | None"]


class CallPool:
    """Runs tasks with at most ``max_inflight`` at once.

    ``max_inflight`` counts the caller: :meth:`run` runs tasks in the
    calling thread next to up to ``max_inflight - 1`` helper threads, all
    taking the next task from one first-in-first-out queue. A task may
    return follow-up tasks, which join the end of the queue: work that
    needs one task's result starts as soon as that task ends, in the slots
    the other tasks leave idle. :meth:`map` is a queue of independent
    tasks. ``max_inflight=1`` runs the queue in order in the caller's
    thread, stopping at the first failure, so follow-ups run after every
    task queued before them.

    The helpers are daemon threads, started together on the first run
    wider than one and kept until :meth:`close`; between runs they wait.
    A run wakes one waiting helper per queued task beyond the one the
    caller takes, and a task that returns follow-ups wakes one worker per
    follow-up beyond the one its own thread takes, the caller first. So a
    queue whose tasks finish faster than a helper wakes up is run by the
    caller alone. Runs on one pool take turns; a pooled task must not call
    :meth:`run` or :meth:`map` on its own pool. A closed pool starts new
    helpers on its next run, and a pool never closed does not hold up the
    interpreter's exit.
    """

    def __init__(self, max_inflight: int = 1) -> None:
        if max_inflight < 1:
            raise DomainError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self._helpers: list[threading.Thread] = []
        self._turn = threading.Lock()  # held by the run in progress
        # The state of the run in progress, guarded by _lock.
        self._lock = threading.Lock()
        self._helper_wake = threading.Condition(self._lock)
        self._caller_wake = threading.Condition(self._lock)
        self._queue: list[Task] = []
        self._cursor = self._running = 0
        self._failures: dict[int, BaseException] = {}
        self._caller_waits = self._closing = False

    def run(self, tasks: Iterable[Task]) -> None:
        """Run ``tasks`` and every follow-up they return, up to
        ``max_inflight`` at a time.

        Tasks start in queue order. The caller, with nothing to take,
        waits while any task is still running, because that task may add
        work. Once a task has failed no further task starts; the tasks
        already started are waited for, and then the failure with the
        lowest queue index is raised. For independent tasks that is the
        failure a sequential run would have raised.
        """
        queue = list(tasks)
        if self.max_inflight == 1:
            # The loop reaches the follow-ups appended while it runs.
            for task in queue:
                queue.extend(task() or ())
            return
        if not queue:
            return
        with self._turn:
            with self._lock:
                self._queue, self._cursor, self._running, self._failures = queue, 0, 0, {}
                # The caller takes the first task below.
                self._wake(len(queue) - 1)
            if not self._helpers:
                # New helpers take queued tasks as they start.
                self._start_helpers()
            done = None
            while True:
                with self._lock:
                    if done is not None:
                        self._settle(*done)
                    job = self._take()
                    while job is None and self._running:
                        self._caller_waits = True
                        self._caller_wake.wait()
                        job = self._take()
                    if job is None:
                        failures = self._failures
                        break
                done = _perform(*job)
        if failures:
            raise failures[min(failures)]

    def _take(self) -> "tuple[int, Task] | None":
        """The next queued task of the run and its index, counted as
        running; None once a task has failed or the queue is empty. Called
        under the pool lock."""
        if self._failures or self._cursor == len(self._queue):
            return None
        index = self._cursor
        self._cursor += 1
        self._running += 1
        return index, self._queue[index]

    def _wake(self, workers: int) -> None:
        """Wake up to ``workers`` waiting workers, the caller first. Called
        under the pool lock."""
        if workers > 0 and self._caller_waits:
            self._caller_waits = False
            self._caller_wake.notify()
            workers -= 1
        if workers > 0:
            self._helper_wake.notify(workers)

    def _settle(self, index: int, follow_ups: list | None, failure: BaseException | None) -> None:
        """Record how the task at ``index`` ended. Its follow-ups join the
        queue; the thread that ran it takes the next task itself and wakes a
        worker for each further follow-up. Called under the pool lock."""
        self._running -= 1
        if failure is not None:
            self._failures[index] = failure
        elif follow_ups and not self._failures:
            self._queue.extend(follow_ups)
            self._wake(len(follow_ups) - 1)
        if self._caller_waits and not self._running and (self._failures or self._cursor == len(self._queue)):
            # The run is over: the caller returns.
            self._caller_waits = False
            self._caller_wake.notify()

    def _start_helpers(self) -> None:
        self._helpers = [
            threading.Thread(target=self._serve, name=f"tsgdm-call-{i}", daemon=True)
            for i in range(self.max_inflight - 1)
        ]
        for helper in self._helpers:
            helper.start()

    def _serve(self) -> None:
        """A helper's loop: take queued tasks, wait when there are none,
        leave when the pool closes."""
        done = None
        while True:
            with self._lock:
                if done is not None:
                    self._settle(*done)
                job = self._take()
                while job is None:
                    if self._closing:
                        return
                    self._helper_wake.wait()
                    job = self._take()
            done = _perform(*job)

    def map(self, fn: Callable[[_Item], _Out], items: Iterable[_Item]) -> list[_Out]:
        """``[fn(item) for item in items]``: one :meth:`run` of a task per
        item, with the results in item order."""
        items = list(items)
        if len(items) < 2:
            return [fn(item) for item in items]
        results: list = [None] * len(items)

        def store(index: int) -> None:
            results[index] = fn(items[index])

        self.run(functools.partial(store, index) for index in range(len(items)))
        return results

    def close(self) -> None:
        """Wake the helpers, let them leave and join them."""
        with self._turn:
            with self._lock:
                self._closing = True
                self._helper_wake.notify_all()
            for helper in self._helpers:
                helper.join()
            self._helpers, self._closing = [], False

    def __enter__(self) -> "CallPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _perform(index: int, task: Task) -> "tuple[int, list | None, BaseException | None]":
    """Run one pooled task: its index, its follow-ups (None for none) and
    its failure."""
    try:
        follow_ups = task()
        return index, None if follow_ups is None else list(follow_ups), None
    except BaseException as exc:  # re-raised by the run's caller
        return index, None, exc


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
    ``default_response``. The rules are only read, so the backend is safe
    to share across threads.
    """

    # Answers from memory: threads would only contend for the interpreter.
    waits_on_io = False

    def __init__(
        self,
        rules: Iterable[ScriptRule] = (),
        default_response: str = "",
        default_finish_reason: FinishReason = FinishReason.STOP,
    ) -> None:
        self.rules = list(rules)
        self.default_response = default_response
        self.default_finish_reason = FinishReason(default_finish_reason)

    def complete(self, request: CompletionRequest) -> CompletionResult:
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
    """HTTP backend for an OpenAI-compatible endpoint, with bounded retries.

    It reads ``base_url``, ``model``, ``api_key_env``, ``timeout_s``,
    ``chat``, ``max_attempts`` and ``max_inflight`` from its settings.
    ``chat=True`` speaks the chat-completions shape, otherwise the plain
    completions shape. The API key is read from the environment variable
    named by ``api_key_env`` at call time, never stored. The connection
    pool keeps at least ``max_inflight`` connections.

    Transient failures (HTTP 429/5xx, timeouts, dropped connections) are
    retried up to ``max_attempts`` total attempts; 401/403 raise
    :class:`AuthError` immediately, other client errors and unparseable
    bodies raise :class:`ProtocolError`. Retry ``n`` waits
    ``backoff_base_s * 2**(n-1)``, stretched by a random share of up to half
    of itself so that concurrent callers do not retry in lockstep, and never
    less than a 429/503 response's ``Retry-After`` seconds. ``rand`` draws
    the jitter share in [0, 1).
    """

    def __init__(
        self,
        settings: BackendSettings,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rand: Callable[[], float] = random.random,
        backoff_base_s: float = 0.5,
    ) -> None:
        if backoff_base_s < 0:
            raise DomainError(f"backoff_base_s must be >= 0, got {backoff_base_s}")
        self.settings = settings
        if session is None:
            session = requests.Session()
            size = max(_DEFAULT_POOL_SIZE, settings.max_inflight)
            adapter = HTTPAdapter(pool_connections=size, pool_maxsize=size)
            session.mount("https://", adapter)
            session.mount("http://", adapter)
        self._session = session
        self._sleep = sleep
        self._rand = rand
        self._backoff_base_s = backoff_base_s
        path = "/chat/completions" if settings.chat else "/completions"
        self._url = settings.base_url.rstrip("/") + path

    def _backoff_s(self, attempt: int, retry_after_s: float) -> float:
        delay = self._backoff_base_s * 2 ** (attempt - 1)
        delay *= 1.0 + _BACKOFF_JITTER * self._rand()
        return max(delay, retry_after_s)

    def _payload(self, request: CompletionRequest) -> dict:
        body: dict = {
            "model": self.settings.model,
            "max_tokens": request.max_new_tokens,
            "temperature": request.temperature,
        }
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
        if self.settings.chat:
            body["messages"] = [{"role": "user", "content": request.prompt_text}]
        else:
            body["prompt"] = request.prompt_text
        return body

    def _parse(self, data: object) -> CompletionResult:
        try:
            assert isinstance(data, Mapping)
            choice = data["choices"][0]
            if self.settings.chat:
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
        if raw_reason is None:
            reason = FinishReason.STOP
        else:
            reason = _FINISH_ALIASES.get(str(raw_reason).lower())
            if reason is None:
                raise ProtocolError(f"unknown finish_reason {raw_reason!r}")
        return CompletionResult(
            text=str(text),
            finish_reason=reason,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )

    def complete(self, request: CompletionRequest) -> CompletionResult:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.settings.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_error: Exception | None = None
        retry_after_s = 0.0
        for attempt in range(self.settings.max_attempts):
            if attempt:
                self._sleep(self._backoff_s(attempt, retry_after_s))
            retry_after_s = 0.0
            try:
                response = self._session.post(
                    self._url,
                    json=self._payload(request),
                    headers=headers,
                    timeout=self.settings.timeout_s,
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
            f"gave up after {self.settings.max_attempts} attempts: {last_error}"
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

    A digest does not cover the model that answered, so ``backend`` names
    it (kind, base URL, model, chat flag); :meth:`save` writes it as the
    file's first line, and :meth:`load` reads it back, or None from a file
    without one.
    """

    def __init__(
        self,
        mode: CacheMode | str = CacheMode.RECORD,
        entries: Mapping[str, CompletionResult] | None = None,
        backend: Mapping[str, object] | None = None,
    ) -> None:
        self.mode = CacheMode(mode)
        self.entries: dict[str, CompletionResult] = dict(entries or {})
        self.backend = None if backend is None else dict(backend)
        self._lock = threading.RLock()
        self._inflight: dict[str, Future] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self.entries)

    def lookup(self, digest: str) -> CompletionResult | None:
        with self._lock:
            return self.entries.get(digest)

    def record(self, digest: str, request: CompletionRequest, inner: Backend) -> CompletionResult:
        """The stored result for ``digest`` (the request's), or else the
        inner backend's, stored; exactly one inner call per digest however
        many threads ask at once. Waiters of a failed call get its exception."""
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
        if self.backend is not None:
            lines.append(json.dumps({"backend": self.backend}, sort_keys=True, ensure_ascii=False))
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
        backend = None
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if lineno == 1 and "backend" in row:
                    backend = row["backend"]
                    continue
                entries[row["digest"]] = CompletionResult(
                    text=row["text"],
                    finish_reason=FinishReason(row["finish_reason"]),
                    prompt_tokens=int(row.get("prompt_tokens", 0)),
                    completion_tokens=int(row.get("completion_tokens", 0)),
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise ProtocolError(f"{path}:{lineno}: bad cache line: {exc!r}") from exc
        return cls(mode=mode, entries=entries, backend=backend)


class CachingBackend:
    """Backend view that routes each request through ``cache`` in front of
    ``inner``, as the cache's mode says."""

    def __init__(self, cache: ReplayCache, inner: Backend) -> None:
        self.cache = cache
        self.inner = inner

    @property
    def waits_on_io(self) -> bool:
        # Replay answers from the store alone; the other modes call ``inner``.
        return self.cache.mode is not CacheMode.REPLAY and waits_on_io(self.inner)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        if self.cache.mode is CacheMode.PASSTHROUGH:
            return self.inner.complete(request)
        digest = request.digest()
        if self.cache.mode is CacheMode.REPLAY:
            found = self.cache.lookup(digest)
            if found is None:
                raise CacheMissError(f"no cached result for digest {digest}")
            return found
        return self.cache.record(digest, request, self.inner)


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

    @property
    def waits_on_io(self) -> bool:
        return waits_on_io(self.inner)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        lock = self._lock
        with lock:
            if self.max_calls is not None and self.calls >= self.max_calls:
                raise BudgetExceededError(f"gateway call budget of {self.max_calls} exhausted")
            self.calls += 1
        result = self.inner.complete(request)
        with lock:
            self.prompt_tokens += result.prompt_tokens
            self.completion_tokens += result.completion_tokens
        return result
