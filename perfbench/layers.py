"""Per-layer numbers: derived from gateway probe logs, and microbenchmarks of
the hot pieces timed on inputs captured from a workload."""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Iterable, Sequence

from tsgdm.gateway import CompletionRequest, CompletionResult
from tsgdm.task import parse_label

from tracing import phase_of

PHASES = ("predict", "analyze", "refine", "score", "test")
GREEDY_PHASES = ("predict", "score", "test")

Log = Sequence[tuple[CompletionRequest, CompletionResult, float, float]]


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def phase_totals(log: Log) -> dict[str, tuple[int, int, int]]:
    """Per phase: (calls, prompt tokens, completion tokens)."""
    totals = {phase: [0, 0, 0] for phase in PHASES}
    for request, result, _, _ in log:
        row = totals.setdefault(phase_of(request.request_tag), [0, 0, 0])
        row[0] += 1
        row[1] += result.prompt_tokens
        row[2] += result.completion_tokens
    return {phase: tuple(row) for phase, row in totals.items()}


def busy_seconds(log: Log) -> float:
    return sum(end - start for _, _, start, end in log)


def distinct_digest_ratio(log: Log) -> float:
    return len({request.digest() for request, _, _, _ in log}) / len(log)


def candidates(log: Log) -> dict[str, dict[str, list[str]]]:
    """Candidate texts rebuilt from refine calls tagged
    ``refine/iter<t>/cand<j>/block<b>``: iteration -> candidate -> blocks."""
    found: dict[str, dict[str, list[str]]] = {}
    for request, result, _, _ in log:
        parts = request.request_tag.split("/")
        if parts[0] == "refine" and len(parts) == 4:
            found.setdefault(parts[1], {}).setdefault(parts[2], []).append(result.text)
    return found


def blocks_per_candidate(log: Log) -> float:
    per_candidate = [len(blocks) for cands in candidates(log).values() for blocks in cands.values()]
    return mean(per_candidate)


def candidates_distinct_ratio(log: Log) -> float:
    """Distinct candidate texts within each iteration over candidates generated."""
    distinct = generated = 0
    for cands in candidates(log).values():
        texts = ["".join(blocks) for blocks in cands.values()]
        distinct += len(set(texts))
        generated += len(texts)
    return distinct / generated if generated else 0.0


def score_prompt_calls(log: Log) -> int:
    """``score_prompt`` invocations: each one starts with example 0."""
    return sum(
        1 for request, _, _, _ in log
        if request.request_tag.endswith("/ex0") and phase_of(request.request_tag) in ("score", "test")
    )


def forward_texts(log: Log) -> list[str]:
    return [result.text for request, result, _, _ in log if phase_of(request.request_tag) in GREEDY_PHASES]


def unparsed_ratio(log: Log, label_set: Sequence[str]) -> float:
    texts = forward_texts(log)
    return sum(1 for text in texts if parse_label(text, label_set) is None) / len(texts)


def refine_prompt_bytes(log: Log) -> list[int]:
    return [
        len(request.prompt_text.encode("utf-8"))
        for request, _, _, _ in log
        if phase_of(request.request_tag) == "refine"
    ]


def per_call_us(fn: Callable, inputs: Sequence, min_s: float = 0.01, repeats: int = 5) -> float:
    """Microsecond cost of ``fn(x)``: each repeat loops over ``inputs`` until
    ``min_s`` has passed; the median over repeats of the mean per call."""
    results = []
    for _ in range(repeats):
        calls = 0
        start = perf_counter()
        while True:
            for x in inputs:
                fn(x)
            calls += len(inputs)
            elapsed = perf_counter() - start
            if elapsed >= min_s:
                break
        results.append(elapsed / calls * 1e6)
    return statistics.median(results)
