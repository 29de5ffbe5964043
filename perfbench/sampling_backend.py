"""Seeded stand-in for a live completion model.

Every answer is a pure function of ``(seed, request)``, so call order,
threads or a cache in front can never change what a request gets back:

- Greedy requests (``temperature == 0``, the forward passes) see the prompt
  only.
- Sampled requests (``temperature > 0``, refine and analyze) see the prompt
  plus ``request_tag``. The tag stands for the sample's identity, so the k
  candidates of one iteration differ the way a live model's samples do.
- Forward-pass accuracy rises with the number of distinct key words in the
  instruction, so candidate scores differ and stay below 1.0.
- The simulated delay is a base time with a jitter taken from the request's
  hash, plus a per-completion-token term. A sleep that wakes late shortens
  the same thread's next sleep by the overshoot, so a thread's total wait is
  the sum of its delays and the host's wake-up latency does not add up over
  the thousand calls of a trial.

The stock ``ScriptedBackend`` answers every refine request with one canned
sentence, so nearly all requests repeat; this backend is what a benchmark of
caching, selection or concurrency needs instead.
"""

from __future__ import annotations

import hashlib
import random
import re
import threading
import time
from time import perf_counter
from typing import Callable

from tsgdm.gateway import CompletionRequest, CompletionResult, FinishReason

# Words whose presence makes an instruction good at the synthetic marker task.
KEY_WORDS = ("marker", "word", "last", "copy", "exactly", "label", "blue", "red")
FILLER_WORDS = (
    "read", "item", "description", "carefully", "then", "answer", "with", "one",
    "name", "output", "only", "consider", "context", "decide", "each", "input",
    "focus", "final", "token", "given", "respond", "single", "lowercase", "check",
    "please", "think", "step", "clear", "simple", "reason", "briefly", "text",
    "look", "at", "sentence", "choose", "best", "option", "class", "category",
    "about", "meaning", "topic", "style", "tone", "short", "careful", "precise",
    "review", "whole", "entry", "phrase", "return", "result", "value", "form",
    "identify", "correct", "response", "guess", "likely", "overall", "signal",
    "hint", "clue", "detail", "note", "mention", "write", "reply", "provide",
)
VOCAB = KEY_WORDS + FILLER_WORDS
_VOCAB_SET = frozenset(VOCAB)
_KEY_SET = frozenset(KEY_WORDS)

LABELS = ("blue", "red")
UNPARSED_ANSWER = " unsure"

# A sampled block runs to its token budget with this probability (and the
# optimizer then asks for another block); otherwise it stops early.
CONTINUE_PROB = 0.55
# Share of sampled words copied from the conditioning prompt rather than drawn
# fresh from the vocabulary: how strongly a sample follows its source.
COPY_PROB = 0.6
# Forward-pass accuracy: FLOOR at no key word, FLOOR + SPAN at all of them.
ACCURACY_FLOOR = 0.45
ACCURACY_SPAN = 0.5
# Share of wrong forward answers that name no label at all.
UNPARSED_SHARE = 0.3

_WORD_RE = re.compile(r"[a-z]+")
_MARKER_RE = re.compile(r"carries marker (\w+)")


def instruction_quality(instruction: str) -> float:
    """Share of key words present in ``instruction``, in [0, 1]."""
    return len(_KEY_SET.intersection(_WORD_RE.findall(instruction.lower()))) / len(KEY_WORDS)


def _unit(chunk: bytes) -> float:
    return int.from_bytes(chunk, "big") / float(1 << (8 * len(chunk)))


class SamplingBackend:
    """Backend whose text and delay depend only on the seed and the request.

    ``base_ms`` and ``per_token_ms`` set the simulated latency; with both at
    zero the backend never sleeps. Between calls the backend keeps only each
    thread's sleep overshoot, and it is safe to share across threads.
    """

    def __init__(
        self,
        seed: int,
        base_ms: float = 0.0,
        per_token_ms: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.seed = int(seed)
        self.base_s = base_ms / 1000.0
        self.per_token_s = per_token_ms / 1000.0
        self._sleep = sleep
        self._local = threading.local()

    def _key(self, request: CompletionRequest) -> bytes:
        sampled = request.temperature > 0.0
        material = "\x00".join(
            (
                str(self.seed),
                repr(request.temperature),
                str(request.max_new_tokens),
                "\x01".join(request.stop_sequences),
                request.request_tag if sampled else "",
                request.prompt_text,
            )
        )
        return hashlib.blake2b(material.encode("utf-8"), digest_size=16).digest()

    def answer(self, request: CompletionRequest) -> tuple[CompletionResult, float]:
        """The result for ``request`` and its simulated delay in seconds,
        without waiting."""
        key = self._key(request)
        if request.temperature > 0.0:
            text, reason, completion_tokens = self._sample(request, key)
        else:
            text, reason, completion_tokens = self._forward(request, key)
        result = CompletionResult(
            text=text,
            finish_reason=reason,
            prompt_tokens=len(request.prompt_text.split()),
            completion_tokens=completion_tokens,
        )
        delay = self.base_s * (0.75 + 0.5 * _unit(key[8:12])) + self.per_token_s * completion_tokens
        return result, delay

    def complete(self, request: CompletionRequest) -> CompletionResult:
        result, delay = self.answer(request)
        if delay > 0.0:
            self._wait(delay)
        return result

    def _wait(self, delay: float) -> None:
        """Sleep ``delay`` less what this thread's earlier sleeps overslept."""
        target = delay - getattr(self._local, "late", 0.0)
        if target <= 0.0:
            self._local.late = -target
            return
        start = perf_counter()
        self._sleep(target)
        self._local.late = max(0.0, perf_counter() - start - target)

    def _forward(self, request: CompletionRequest, key: bytes) -> tuple[str, FinishReason, int]:
        # Forward prompts end "<instruction>\n<input>\nAnswer:"; the model
        # judges the instruction and reads the marker from the input.
        parts = request.prompt_text.rsplit("\n", 2)
        instruction = parts[0]
        found = _MARKER_RE.search(parts[1] if len(parts) == 3 else request.prompt_text)
        gold = found.group(1) if found else LABELS[key[0] % len(LABELS)]
        accuracy = ACCURACY_FLOOR + ACCURACY_SPAN * instruction_quality(instruction)
        if _unit(key[0:4]) < accuracy:
            text = " " + gold
        elif _unit(key[4:8]) < UNPARSED_SHARE:
            text = UNPARSED_ANSWER
        else:
            text = " " + next((label for label in LABELS if label != gold), gold)
        return text, FinishReason.STOP, min(len(text.split()), request.max_new_tokens)

    def _sample(self, request: CompletionRequest, key: bytes) -> tuple[str, FinishReason, int]:
        rng = random.Random(key)
        budget = request.max_new_tokens
        if budget == 1 or rng.random() < CONTINUE_PROB:
            count, reason = budget, FinishReason.LENGTH
        else:
            count, reason = rng.randint(1, budget - 1), FinishReason.STOP
        context = [w for w in _WORD_RE.findall(request.prompt_text.lower()) if w in _VOCAB_SET]
        words = [
            rng.choice(context) if context and rng.random() < COPY_PROB else rng.choice(VOCAB)
            for _ in range(count)
        ]
        return "".join(" " + w for w in words), reason, count
