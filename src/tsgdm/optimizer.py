"""Momentum-based textual prompt optimization.

The optimizer keeps every past instruction in an append-only history and
writes each new candidate block by block. The three update rules differ
only in which conditioning text each block sees. Before its first call, a
candidate fixes its draw plan: the source record of each of its B =
ceil(max_total_tokens / block_tokens) blocks.

- Momentum draws the plan from the history mixture, whose weights decay
  geometrically with a record's age, so one candidate can interleave
  continuations of several past instructions.
- Vanilla conditions every block on the newest instruction. So does
  momentum at alpha=0, and momentum over a single record.
- The concatenation baseline pastes the whole history into one
  conditioning prompt, the same for every block.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
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
    Task,
)
from .rng import STREAM_BATCH, STREAM_CANDIDATES, RandomStream, substream
from .task import ScoreFunction, TaskBinding, check_batch, sample_batch, predict

Triple = tuple[str, str, str]
ScoreFn = Callable[[str], float]


# ---------------------------------------------------------------------------
# history types


@dataclass(frozen=True)
class PromptRecord:
    """One optimization step: the instruction, its holdout score, and in
    gradient mode its batch evidence and the error analysis written on it."""

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
        """Every template this mode renders must name its fields and render
        with exactly those fields, so a bad template fails here and not
        mid-run."""
        if self.mode is GenerationMode.CONCAT_BASELINE:
            templates.check_template("concat-baseline refine_template", self.refine_template, ("history",))
        elif self.mode is GenerationMode.CASE2_GRADIENT:
            templates.check_template("gradient-mode refine_template", self.refine_template, ("prompt", "gradient"))
            templates.check_template("analyze_template", self.analyze_template, ("prompt", "examples"))
        else:
            templates.check_template("refine_template", self.refine_template, ("prompt",))


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
        # A preset sets its temperature on a copy: the caller's
        # GenerationParams may be shared with other configs.
        if self.hypothesis_preset is HypothesisPreset.H0:
            self.generation = dataclasses.replace(self.generation, temperature=0.7)
            self.patience = 2
        elif self.hypothesis_preset is HypothesisPreset.H1:
            self.generation = dataclasses.replace(self.generation, temperature=1.1)
            self.patience = 5


class StopReason(str, Enum):
    MAX_ITERATIONS = "max_iterations"
    EARLY_STOPPED = "early_stopped"


@dataclass(frozen=True)
class IterationRow:
    """One scored prompt: row 0 is the initial prompt, row t >= 1 the prompt
    selected at outer iteration t. Call/token counts are cumulative; only
    gradient mode sends batch forward passes and analyses."""

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


def draw_plan(weights: WeightVector, blocks: int, rng: RandomStream) -> tuple[int, ...]:
    """The source record of each of a candidate's ``blocks`` blocks:
    ``blocks`` successive :func:`sample_source` draws on ``rng``."""
    return tuple(sample_source(weights, rng) for _ in range(blocks))


def _conditioning_text(gen: GenerationParams, record: PromptRecord) -> str:
    """Refine conditioning for one source record; a sampled record always
    travels with its own error analysis in gradient mode."""
    if gen.mode is GenerationMode.CASE2_GRADIENT:
        if record.gradient_text is None:
            raise EmptyBatchError(
                f"record {record.iteration} has no gradient_text for gradient-mode conditioning"
            )
        return gen.refine_template.format(
            prompt=record.prompt_text, gradient=record.gradient_text
        )
    return gen.refine_template.format(prompt=record.prompt_text)


def generate_candidate(
    conditioning: Sequence[str],
    gen: GenerationParams,
    lm: Backend,
    tag_prefix: str,
) -> str:
    """One candidate, block by block: block ``b`` asks for up to
    block_tokens more tokens on ``conditioning[b]`` followed by the
    candidate so far, until the total budget is spent or the backend stops
    on its own."""
    parts: list[str] = []
    produced = 0
    for block, text in enumerate(conditioning):
        budget = min(gen.block_tokens, gen.max_total_tokens - produced)
        request = CompletionRequest(
            prompt_text=text + "".join(parts),
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


def concat_momentum_prompt(history: Sequence[PromptRecord], template: str) -> str:
    """Conditioning text for the concatenation baseline: every instruction
    of ``history`` joined oldest-first into the history template."""
    if len(history) == 0:
        raise EmptyHistoryError("concat baseline needs at least one record")
    joined = "\n".join(record.prompt_text for record in history)
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
# update step


def _candidate_tag(iteration: int, j: int) -> str:
    return f"refine/iter{iteration}/cand{j}"


def _maker(
    records: Sequence[PromptRecord], gen: GenerationParams, momentum: bool, root_seed: int, lm: Backend
) -> Callable[[int], str]:
    """Maker of candidate ``j`` of round ``t``, the iteration of
    ``records[-1]``, which picks each block's conditioning by the update rule:

    - concat: the joined history, for every block;
    - vanilla, or momentum over a single record: the newest record, for
      every block, with no draw;
    - momentum: the :func:`draw_plan` of candidate ``j``, drawn from its own
      ``substream(root_seed, STREAM_CANDIDATES, t, j)`` inside its task.
      Each drawn record is rendered once per round.
    """
    if len(records) == 0:
        raise EmptyHistoryError("an update needs at least one record")
    t = records[-1].iteration
    blocks = math.ceil(gen.max_total_tokens / gen.block_tokens)
    if gen.mode is GenerationMode.CONCAT_BASELINE:
        conditioning = (concat_momentum_prompt(records, gen.refine_template),) * blocks
    elif not momentum or len(records) == 1:
        conditioning = (_conditioning_text(gen, records[-1]),) * blocks
    else:
        weights = momentum_weights(gen.alpha, len(records) - 1)
        render = functools.cache(lambda source: _conditioning_text(gen, records[source]))

        def make(j: int) -> str:
            plan = draw_plan(weights, blocks, substream(root_seed, STREAM_CANDIDATES, t, j))
            return generate_candidate([render(source) for source in plan], gen, lm, _candidate_tag(t, j))

        return make
    return lambda j: generate_candidate(conditioning, gen, lm, _candidate_tag(t, j))


def _argmax(scores: list[float]) -> tuple[int, float, list[float]]:
    """The winner's index and score, lowest index winning ties, and every
    candidate's score, empty for a lone candidate: it is scored, but there
    is nothing to compare."""
    index = max(range(len(scores)), key=scores.__getitem__)
    return index, scores[index], scores if len(scores) > 1 else []


class _Candidates:
    """The k candidates of iteration ``t``. :meth:`tasks` makes candidate
    ``j`` in task ``j``; when ``score`` is a :class:`ScoreFunction`, that
    task returns the candidate's forward passes over ``score``'s examples,
    tagged ``{score.tag}/iter{t}/cand{j}/ex{i}``, so scoring starts as soon
    as the candidate is made."""

    def __init__(self, k: int, score: ScoreFn, t: int) -> None:
        self.score = score
        self.texts = [""] * k
        self.streamed = isinstance(score, ScoreFunction)
        n = len(score.examples) if self.streamed else 0
        self.hits = [[False] * n for _ in range(k)]
        tags = [f"{score.tag}/iter{t}/cand{j}" for j in range(k)] if self.streamed else []
        self.scorers = [dataclasses.replace(score, tag=tag) for tag in tags]

    def tasks(self, make: Callable[[int], str]) -> list[Task]:
        return [functools.partial(self._generate, make, j) for j in range(len(self.texts))]

    def _generate(self, make: Callable[[int], str], j: int) -> list[Task]:
        self.texts[j] = make(j)
        return [functools.partial(self._forward, j, i) for i in range(len(self.hits[j]))]

    def _forward(self, j: int, i: int) -> None:
        self.hits[j][i] = self.scorers[j].hit(self.texts[j], i)

    def select(self) -> tuple[int, float, list[float]]:
        """The :func:`_argmax` of the streamed scores, or else of
        ``score`` on the finished candidates: in one batch if it has a
        ``many`` method, else once per candidate, in order."""
        if self.streamed:
            return _argmax([sum(row) / len(row) for row in self.hits])
        many = getattr(self.score, "many", None)
        scores = many(self.texts) if many is not None else map(self.score, self.texts)
        return _argmax([float(s) for s in scores])


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
    pool: CallPool = SEQUENTIAL,
) -> RunResult:
    """Optimize ``task.initial_prompt`` for ``config.total_iterations`` rounds.

    Each round makes k candidates for the next instruction; in gradient
    mode it first runs the current instruction over a sampled train batch
    and asks the backend for an error analysis. The other modes read only
    prompt texts, so they draw no batch. Candidate j of round t is one
    block loop over the conditioning that its update rule picks: the joined
    history in concat mode, the newest record in vanilla mode, and in
    momentum mode the records of a draw plan taken from its own
    ``substream(root, STREAM_CANDIDATES, t, j)``, which nothing else reads.
    Candidate selection scores come from the holdout split unless
    ``score_fn`` overrides them. The run stops early once the best holdout
    score has gone ``config.patience`` consecutive rounds without strict
    improvement, and always returns the highest-scoring prompt seen,
    including the initial one.

    All randomness descends from ``config.seed``; passing ``rng`` replaces
    that root with a seed drawn from the given stream, and sampled requests
    carry the root as their ``sample_seed``. A train pool that
    :func:`sample_batch` would refuse fails before the first call, in every
    mode. On failure the partial row list is attached to the raised
    exception as ``partial_run_log``.

    Every gateway call runs on ``pool``, up to its ``max_inflight`` at
    once. The caller owns the pool: the run neither opens nor closes it, so
    one pool can also serve whatever the caller runs next, such as a test
    pass. Each iteration is one ``pool.run`` of a queue in which every call
    is queued as soon as the values it reads exist. In gradient mode the
    queue starts with the batch forward passes; the last of them to finish
    queues the error analysis, which queues the k candidate generations.
    In the other modes it starts with the k generations. As soon as
    candidate j is made, its |holdout| forward passes join the queue. A
    ``score_fn`` that is not a :class:`ScoreFunction` instead scores all k
    candidates once the queue drains, in one ``many`` batch if it has one.
    The round's record, with its batch triples in gradient mode, is
    appended once the queue drains; generation sees it earlier through a
    view of the history.

    Every request and its place in the result are fixed before it is sent,
    so the result is byte-identical at every pool width. The default,
    :data:`SEQUENTIAL`, has width 1 and runs each queue in order in the
    caller's thread: in gradient mode the forward passes, the analysis,
    the k generations, then the holdout passes by candidate and example; in
    the other modes the k generations, then the holdout passes.
    """
    if rng is None:
        root_seed = config.seed
    else:
        root_seed = int(rng.integers(0, 2**63))
    counter = CallCounter(_RunDraws(lm, root_seed), max_calls=max_lm_calls)
    gen = config.generation
    score = score_fn if score_fn is not None else task.score_function(counter, pool=pool)
    train = task.train[: config.train_size]
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
        if config.total_iterations:
            check_batch(len(train), config.batch_size, config.sample_with_replacement)
        current_prompt = task.initial_prompt
        best = float(score(current_prompt))
        snapshot(0, current_prompt, best, (), 0)
        stop_reason = StopReason.MAX_ITERATIONS
        stale = 0
        for t in range(config.total_iterations):
            record = PromptRecord(iteration=t, prompt_text=current_prompt, holdout_score=rows[-1].holdout_score)
            pick = _Candidates(gen.candidates, score, t)

            def generations(newest: PromptRecord) -> list[Task]:
                return pick.tasks(_maker((*history, newest), gen, config.use_momentum, root_seed, counter))

            if gen.mode is GenerationMode.CASE2_GRADIENT:
                batch = sample_batch(
                    train,
                    config.batch_size,
                    substream(root_seed, STREAM_BATCH, t),
                    with_replacement=config.sample_with_replacement,
                )
                triples: list[Triple | None] = [None] * len(batch)
                remaining = len(batch)
                counted = threading.Lock()

                def forward(i: int) -> list[Task] | None:
                    nonlocal remaining
                    example = batch[i]
                    raw, parsed = predict(
                        counter, current_prompt, example.input_text, task.label_set, task.forward_template,
                        tag=f"predict/iter{t}/ex{i}",
                    )
                    prediction = parsed if parsed is not None else raw.strip()
                    triples[i] = (example.input_text, example.gold_label, prediction)
                    with counted:  # the last pass to finish queues the analysis
                        remaining -= 1
                        last = not remaining
                    return [analyze] if last else None

                def analyze() -> list[Task]:
                    nonlocal record
                    record = dataclasses.replace(record, batch_triples=tuple(triples))
                    gradient = compute_textual_gradient(
                        record, gen.analyze_template, counter, gen, tag=f"analyze/iter{t}"
                    )
                    record = dataclasses.replace(record, gradient_text=gradient)
                    return generations(record)

                pool.run([functools.partial(forward, i) for i in range(len(batch))])
            else:
                pool.run(generations(record))
            history.append(record)
            index, value, cand_scores = pick.select()
            next_prompt = pick.texts[index]
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

    best_row = max(rows, key=lambda row: row.holdout_score)
    return RunResult(
        best_prompt=best_row.selected_prompt,
        per_iteration=tuple(rows),
        stop_reason=stop_reason,
        total_lm_calls=counter.calls,
    )
