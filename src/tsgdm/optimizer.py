"""Momentum-based textual prompt optimization.

The optimizer keeps every past instruction in an append-only history. A
vanilla update rewrites only the newest instruction; the momentum update
samples, for every block of generated tokens, which past instruction to
condition on, with probabilities decaying geometrically with age. A
concatenation baseline instead pastes the whole history into one
conditioning prompt.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

from . import templates
from .errors import (
    DomainError,
    EmptyBatchError,
    EmptyHistoryError,
)
from .gateway import (
    SEQUENTIAL,
    Backend,
    CallCounter,
    CallPool,
    CompletionRequest,
    CompletionResult,
    FinishReason,
)
from .rng import STREAM_BATCH, STREAM_CANDIDATES, RandomStream, substream
from .task import LabeledExample, TaskBinding, sample_batch, predict

Triple = tuple[str, str, str]
ScoreFn = Callable[[str], float]


# ---------------------------------------------------------------------------
# history types


@dataclass(frozen=True)
class PromptRecord:
    """One optimization step: the instruction, its batch evidence, optionally
    the error analysis written about it, and its holdout score."""

    iteration: int
    prompt_text: str
    gradient_text: str | None = None
    batch_triples: tuple[Triple, ...] = ()
    holdout_score: float = 0.0

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise DomainError(f"iteration must be >= 0, got {self.iteration}")
        if not 0.0 <= self.holdout_score <= 1.0:
            raise DomainError(f"holdout_score must be in [0, 1], got {self.holdout_score}")
        object.__setattr__(
            self, "batch_triples", tuple(tuple(triple) for triple in self.batch_triples)
        )


class OptimizerHistory:
    """Append-only sequence of records with gap-free iteration numbers 0..t."""

    def __init__(self, records: Iterable[PromptRecord] = ()) -> None:
        self._records: list[PromptRecord] = []
        for record in records:
            self.append(record)

    def append(self, record: PromptRecord) -> None:
        if record.iteration != len(self._records):
            raise DomainError(
                f"expected next iteration {len(self._records)}, got {record.iteration}"
            )
        self._records.append(record)

    @property
    def records(self) -> tuple[PromptRecord, ...]:
        return tuple(self._records)

    def last(self) -> PromptRecord:
        if not self._records:
            raise EmptyHistoryError("history is empty")
        return self._records[-1]

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: int) -> PromptRecord:
        return self._records[index]

    def __iter__(self):
        return iter(self._records)


@dataclass(frozen=True)
class WeightVector:
    """Normalized mixture weights over history records, oldest first."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.weights:
            raise DomainError("weight vector must be nonempty")
        if any(w < 0.0 for w in self.weights):
            raise DomainError("weights must be nonnegative")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1, got {math.fsum(self.weights)!r}")

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, index: int) -> float:
        return self.weights[index]

    def __iter__(self):
        return iter(self.weights)


def momentum_weights(alpha: float, t: int) -> WeightVector:
    """Mixture weights over records 0..t.

    Record tau gets weight proportional to alpha**(t - tau): alpha=1 is
    uniform, alpha=0 puts all mass on the newest record (0**0 == 1), and
    alpha in (0, 1) grows geometrically toward the newest record with
    consecutive ratio 1/alpha.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must be in [0, 1], got {alpha}")
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    raw = [float(alpha) ** (t - tau) for tau in range(t + 1)]
    total = math.fsum(raw)
    return WeightVector(tuple(w / total for w in raw))


def sample_source(weights: WeightVector, rng: RandomStream) -> int:
    """Draw one record index with the given probabilities (inverse CDF on a
    single uniform, so exactly one draw is consumed per call)."""
    u = float(rng.random())
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if u < cumulative:
            return index
    return len(weights) - 1


# ---------------------------------------------------------------------------
# generation parameters and run configuration


class GenerationMode(str, Enum):
    CASE1_META_PROMPT = "case1_meta_prompt"
    CASE2_GRADIENT = "case2_gradient"
    CONCAT_BASELINE = "concat_baseline"


_DEFAULT_REFINE = {
    GenerationMode.CASE1_META_PROMPT: templates.REFINE_PROMPT,
    GenerationMode.CASE2_GRADIENT: templates.REFINE_WITH_FEEDBACK_PROMPT,
    GenerationMode.CONCAT_BASELINE: templates.CONCAT_HISTORY_PROMPT,
}


@dataclass
class GenerationParams:
    """Knobs of one candidate-generation pass."""

    alpha: float = 0.6
    max_total_tokens: int = 100
    block_tokens: int = 10
    temperature: float = 0.7
    candidates: int = 20
    mode: GenerationMode = GenerationMode.CASE1_META_PROMPT
    refine_template: str | None = None
    analyze_template: str | None = None

    def __post_init__(self) -> None:
        self.mode = GenerationMode(self.mode)
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.max_total_tokens < 1:
            raise DomainError(f"max_total_tokens must be >= 1, got {self.max_total_tokens}")
        if self.block_tokens < 1 or self.block_tokens > self.max_total_tokens:
            raise DomainError(
                f"block_tokens must be in [1, max_total_tokens], got {self.block_tokens}"
            )
        if self.temperature < 0.0:
            raise DomainError(f"temperature must be >= 0, got {self.temperature}")
        if self.candidates < 1:
            raise DomainError(f"candidates must be >= 1, got {self.candidates}")
        if self.refine_template is None:
            self.refine_template = _DEFAULT_REFINE[self.mode]
        if self.analyze_template is None and self.mode is GenerationMode.CASE2_GRADIENT:
            self.analyze_template = templates.ANALYZE_PROMPT
        self._check_placeholders()

    def _check_placeholders(self) -> None:
        refine = self.refine_template or ""
        if self.mode is GenerationMode.CONCAT_BASELINE:
            if not templates.has_placeholder(refine, "history"):
                raise DomainError("concat-baseline refine_template needs a {history} placeholder")
            return
        if not templates.has_placeholder(refine, "prompt"):
            raise DomainError("refine_template needs a {prompt} placeholder")
        if self.mode is GenerationMode.CASE2_GRADIENT:
            if not templates.has_placeholder(refine, "gradient"):
                raise DomainError("gradient-mode refine_template needs a {gradient} placeholder")
            analyze = self.analyze_template or ""
            if not (
                templates.has_placeholder(analyze, "prompt")
                and templates.has_placeholder(analyze, "examples")
            ):
                raise DomainError("analyze_template needs {prompt} and {examples} placeholders")


class HypothesisPreset(str, Enum):
    H0 = "H0"
    H1 = "H1"
    CUSTOM = "custom"


@dataclass
class RunConfig:
    """Hyperparameters of one optimization run.

    Presets pin the two standard operating points: H0 forces temperature 0.7
    with patience 2, H1 forces temperature 1.1 with patience 5; custom leaves
    everything as given.
    """

    total_iterations: int = 20
    batch_size: int = 20
    train_size: int = 400
    patience: int = 2
    hypothesis_preset: HypothesisPreset = HypothesisPreset.H0
    seed: int = 0
    generation: GenerationParams = field(default_factory=GenerationParams)
    use_momentum: bool = True
    sample_with_replacement: bool = False

    def __post_init__(self) -> None:
        self.hypothesis_preset = HypothesisPreset(self.hypothesis_preset)
        if self.total_iterations < 0:
            raise DomainError(f"total_iterations must be >= 0, got {self.total_iterations}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.train_size < 1:
            raise DomainError(f"train_size must be >= 1, got {self.train_size}")
        if self.patience < 1:
            raise DomainError(f"patience must be >= 1, got {self.patience}")
        if self.hypothesis_preset is HypothesisPreset.H0:
            self.generation.temperature = 0.7
            self.patience = 2
        elif self.hypothesis_preset is HypothesisPreset.H1:
            self.generation.temperature = 1.1
            self.patience = 5


class StopReason(str, Enum):
    MAX_ITERATIONS = "max_iterations"
    EARLY_STOPPED = "early_stopped"


@dataclass(frozen=True)
class IterationRow:
    """One scored prompt: row 0 is the initial prompt, row t >= 1 the prompt
    selected at outer iteration t. Call/token counts are cumulative."""

    iteration: int
    selected_prompt: str
    holdout_score: float
    candidate_scores: tuple[float, ...] = ()
    selected_candidate_index: int = 0
    gateway_calls: int = 0
    completion_tokens: int = 0

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "selected_prompt": self.selected_prompt,
            "holdout_score": self.holdout_score,
            "candidate_scores": list(self.candidate_scores),
            "selected_candidate_index": self.selected_candidate_index,
            "gateway_calls": self.gateway_calls,
            "completion_tokens": self.completion_tokens,
        }


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimization run."""

    best_prompt: str
    per_iteration: tuple[IterationRow, ...]
    stop_reason: StopReason
    total_lm_calls: int

    @property
    def best_row(self) -> IterationRow:
        return max(self.per_iteration, key=lambda row: row.holdout_score)

    @property
    def best_score(self) -> float:
        return self.best_row.holdout_score

    def to_dict(self) -> dict:
        return {
            "best_prompt": self.best_prompt,
            "best_score": self.best_score,
            "stop_reason": self.stop_reason.value,
            "total_lm_calls": self.total_lm_calls,
            "per_iteration": [row.to_dict() for row in self.per_iteration],
        }


# ---------------------------------------------------------------------------
# candidate generation


def _conditioning_text(gen: GenerationParams, record: PromptRecord) -> str:
    """Refine conditioning for one source record; a sampled record always
    travels with its own error analysis in gradient mode."""
    if gen.mode is GenerationMode.CONCAT_BASELINE:
        raise DomainError("concat baseline conditions on the whole history, not one record")
    if gen.mode is GenerationMode.CASE2_GRADIENT:
        if record.gradient_text is None:
            raise EmptyBatchError(
                f"record {record.iteration} has no gradient_text for gradient-mode conditioning"
            )
        return gen.refine_template.format(
            prompt=record.prompt_text, gradient=record.gradient_text
        )
    return gen.refine_template.format(prompt=record.prompt_text)


def _generate_blocks(
    conditioning_for_block: Callable[[int], str],
    gen: GenerationParams,
    lm: Backend,
    tag_prefix: str,
) -> str:
    """Shared block loop: request up to block_tokens at a time, threading the
    candidate-so-far onto the conditioning prompt as a continuation prefix,
    until the total budget is spent or the backend stops on its own."""
    parts: list[str] = []
    produced = 0
    blocks = math.ceil(gen.max_total_tokens / gen.block_tokens)
    for block in range(blocks):
        budget = min(gen.block_tokens, gen.max_total_tokens - produced)
        request = CompletionRequest(
            prompt_text=conditioning_for_block(block) + "".join(parts),
            max_new_tokens=budget,
            temperature=gen.temperature,
            request_tag=f"{tag_prefix}/block{block}",
        )
        result = lm.complete(request)
        parts.append(result.text)
        produced += budget
        if result.finish_reason is not FinishReason.LENGTH:
            break
    return "".join(parts)


def momentum_generate(
    history: OptimizerHistory,
    gen: GenerationParams,
    rng: RandomStream,
    lm: Backend,
    tag_prefix: str = "refine",
) -> str:
    """One candidate by block-wise sampling over the history mixture.

    Every block independently draws a source record, so a single candidate
    can interleave continuations of several past instructions.
    """
    if len(history) == 0:
        raise EmptyHistoryError("momentum generation needs at least one record")
    weights = momentum_weights(gen.alpha, len(history) - 1)

    def conditioning(block: int) -> str:
        source = history[sample_source(weights, rng)]
        return _conditioning_text(gen, source)

    return _generate_blocks(conditioning, gen, lm, tag_prefix)


def generate_vanilla(
    current: PromptRecord,
    gen: GenerationParams,
    lm: Backend,
    tag_prefix: str = "refine",
) -> str:
    """One candidate by the same block loop, every block conditioned on
    ``current`` only."""
    conditioning_text = _conditioning_text(gen, current)
    return _generate_blocks(lambda block: conditioning_text, gen, lm, tag_prefix)


def concat_momentum_prompt(history: OptimizerHistory, window: int, template: str) -> str:
    """Conditioning text for the concatenation baseline: the last ``window``
    instructions joined oldest-first into the history template."""
    if len(history) == 0:
        raise EmptyHistoryError("concat baseline needs at least one record")
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    chosen = history.records[-window:]
    joined = "\n".join(record.prompt_text for record in chosen)
    return template.format(history=joined)


def compute_textual_gradient(
    current: PromptRecord,
    analyze_template: str,
    lm: Backend,
    gen: GenerationParams,
    tag: str = "analyze",
) -> str:
    """Ask the backend to write an error analysis of ``current`` from its own
    batch triples."""
    if not current.batch_triples:
        raise EmptyBatchError(f"record {current.iteration} has an empty batch")
    request = CompletionRequest(
        prompt_text=analyze_template.format(
            prompt=current.prompt_text,
            examples=templates.format_triples(current.batch_triples),
        ),
        max_new_tokens=gen.max_total_tokens,
        temperature=gen.temperature,
        request_tag=tag,
    )
    return lm.complete(request).text


# ---------------------------------------------------------------------------
# update steps


def _select_candidate(candidates: Sequence[str], score: ScoreFn) -> tuple[str, list[float]]:
    """Single candidates pass through unscored; otherwise score all and take
    the argmax, lowest index winning ties."""
    if len(candidates) == 1:
        return candidates[0], []
    scores = [float(score(candidate)) for candidate in candidates]
    best = max(range(len(scores)), key=lambda i: scores[i])
    return candidates[best], scores


def update_mom(
    history: OptimizerHistory,
    gen: GenerationParams,
    score: ScoreFn,
    rng: RandomStream,
    lm: Backend,
    pool: CallPool = SEQUENTIAL,
) -> tuple[str, list[float]]:
    """One momentum update: k candidates on independent substreams, generated
    through ``pool``, then selection."""
    if len(history) == 0:
        raise EmptyHistoryError("momentum update needs at least one record")
    iteration = history.last().iteration
    streams = rng.spawn(gen.candidates)
    candidates = pool.map(
        lambda j: momentum_generate(history, gen, streams[j], lm, tag_prefix=f"refine/iter{iteration}/cand{j}"),
        range(gen.candidates),
    )
    return _select_candidate(candidates, score)


def update_vanilla(
    current: PromptRecord,
    gen: GenerationParams,
    score: ScoreFn,
    rng: RandomStream,
    lm: Backend,
    pool: CallPool = SEQUENTIAL,
) -> tuple[str, list[float]]:
    """One vanilla update: k candidates conditioned on ``current`` only,
    generated through ``pool``.

    The rng argument is accepted for signature parity; vanilla generation
    consumes no client-side randomness (the backend does the sampling).
    """
    iteration = current.iteration
    candidates = pool.map(
        lambda j: generate_vanilla(current, gen, lm, tag_prefix=f"refine/iter{iteration}/cand{j}"),
        range(gen.candidates),
    )
    return _select_candidate(candidates, score)


def update_concat(
    history: OptimizerHistory,
    gen: GenerationParams,
    score: ScoreFn,
    rng: RandomStream,
    lm: Backend,
    pool: CallPool = SEQUENTIAL,
) -> tuple[str, list[float]]:
    """Concatenation-baseline update: the vanilla block loop over the whole
    joined history, one candidate per ``pool`` item."""
    if len(history) == 0:
        raise EmptyHistoryError("concat update needs at least one record")
    iteration = history.last().iteration
    conditioning = concat_momentum_prompt(history, len(history), gen.refine_template)
    candidates = pool.map(
        lambda j: _generate_blocks(
            lambda block: conditioning, gen, lm, tag_prefix=f"refine/iter{iteration}/cand{j}"
        ),
        range(gen.candidates),
    )
    return _select_candidate(candidates, score)


# ---------------------------------------------------------------------------
# outer loop


class _RunDraws:
    """Backend view that stamps the run's seed on every sampled request, so
    a cache shared by several runs keeps their draws apart."""

    def __init__(self, inner: Backend, seed: int) -> None:
        self.inner = inner
        self.seed = seed

    def complete(self, request: CompletionRequest) -> CompletionResult:
        if request.temperature > 0.0:
            request = dataclasses.replace(request, sample_seed=self.seed)
        return self.inner.complete(request)


def run_tsgd(
    config: RunConfig,
    task: TaskBinding,
    lm: Backend,
    rng: RandomStream | None = None,
    score_fn: ScoreFn | None = None,
    max_lm_calls: int | None = None,
    max_inflight: int = 1,
) -> RunResult:
    """Optimize ``task.initial_prompt`` for ``config.total_iterations`` rounds.

    Each round samples a train batch, runs the current instruction over it,
    (in gradient mode) asks the backend for an error analysis, appends the
    round's record, and produces the next instruction with the configured
    update. Candidate selection scores come from the holdout split unless
    ``score_fn`` overrides them. The run stops early once the best holdout
    score has gone ``config.patience`` consecutive rounds without strict
    improvement, and always returns the highest-scoring prompt seen,
    including the initial one.

    All randomness descends from ``config.seed``; passing ``rng`` replaces
    that root with a seed drawn from the given stream, and sampled requests
    carry the root as their ``sample_seed``. On failure the partial
    row list is attached to the raised exception as ``partial_run_log``.

    Up to ``max_inflight`` gateway calls run at once: the batch forward
    passes, the k candidate generations and each score's forward passes fan
    out over one :class:`CallPool`. Every request and its place in the
    result are fixed before it is sent, so the result is byte-identical for
    every ``max_inflight``; 1 keeps the sequential call order.
    """
    if rng is None:
        root_seed = config.seed
    else:
        root_seed = int(rng.integers(0, 2**63))
    counter = CallCounter(_RunDraws(lm, root_seed), max_calls=max_lm_calls)
    calls = CallPool(max_inflight)
    gen = config.generation
    score = score_fn if score_fn is not None else task.score_function(counter, pool=calls)
    pool = task.train[: config.train_size]
    history = OptimizerHistory()
    rows: list[IterationRow] = []

    def snapshot(iteration: int, prompt: str, value: float, scores: Sequence[float], index: int) -> None:
        rows.append(
            IterationRow(
                iteration=iteration,
                selected_prompt=prompt,
                holdout_score=float(value),
                candidate_scores=tuple(float(s) for s in scores),
                selected_candidate_index=index,
                gateway_calls=counter.calls,
                completion_tokens=counter.completion_tokens,
            )
        )

    try:
        current_prompt = task.initial_prompt
        best = float(score(current_prompt))
        snapshot(0, current_prompt, best, (), 0)
        stop_reason = StopReason.MAX_ITERATIONS
        stale = 0
        for t in range(config.total_iterations):
            batch = sample_batch(
                pool,
                config.batch_size,
                substream(root_seed, STREAM_BATCH, t),
                with_replacement=config.sample_with_replacement,
            )

            def forward(indexed: tuple[int, LabeledExample]) -> Triple:
                i, example = indexed
                raw, parsed = predict(
                    counter,
                    current_prompt,
                    example.input_text,
                    task.label_set,
                    task.forward_template,
                    tag=f"predict/iter{t}/ex{i}",
                )
                prediction = parsed if parsed is not None else raw.strip()
                return (example.input_text, example.gold_label, prediction)

            triples = calls.map(forward, enumerate(batch))
            record = PromptRecord(
                iteration=t,
                prompt_text=current_prompt,
                batch_triples=tuple(triples),
                holdout_score=rows[-1].holdout_score,
            )
            if gen.mode is GenerationMode.CASE2_GRADIENT:
                gradient = compute_textual_gradient(
                    record, gen.analyze_template, counter, gen, tag=f"analyze/iter{t}"
                )
                record = dataclasses.replace(record, gradient_text=gradient)
            history.append(record)

            cand_rng = substream(root_seed, STREAM_CANDIDATES, t)
            if gen.mode is GenerationMode.CONCAT_BASELINE:
                next_prompt, cand_scores = update_concat(history, gen, score, cand_rng, counter, calls)
            elif config.use_momentum:
                next_prompt, cand_scores = update_mom(history, gen, score, cand_rng, counter, calls)
            else:
                next_prompt, cand_scores = update_vanilla(record, gen, score, cand_rng, counter, calls)

            if cand_scores:
                index = max(range(len(cand_scores)), key=lambda i: cand_scores[i])
                value = cand_scores[index]
            else:
                index = 0
                value = float(score(next_prompt))
            snapshot(t + 1, next_prompt, value, cand_scores, index)
            current_prompt = next_prompt

            if value > best:
                best = value
                stale = 0
            else:
                stale += 1
            if stale >= config.patience:
                stop_reason = StopReason.EARLY_STOPPED
                break
    except Exception as exc:
        exc.partial_run_log = tuple(rows)
        raise
    finally:
        calls.close()

    best_row = max(rows, key=lambda row: row.holdout_score)
    return RunResult(
        best_prompt=best_row.selected_prompt,
        per_iteration=tuple(rows),
        stop_reason=stop_reason,
        total_lm_calls=counter.calls,
    )
