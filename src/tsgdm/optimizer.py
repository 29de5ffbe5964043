"""Momentum-based textual prompt optimization.

The optimizer keeps one record per round, oldest first, and writes each
new candidate block by block. The three update rules differ only in which
conditioning text each block sees. Before its first call, a candidate
fixes its draw plan: the source record of each of its B =
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
from typing import Sequence

from . import templates
from .errors import DomainError, check_minimums
from .gateway import (
    SEQUENTIAL,
    Backend,
    CallCounter,
    CallPool,
    CompletionRequest,
    FinishReason,
    Task,
)
from .rng import STREAM_BATCH, STREAM_CANDIDATES, RandomStream, substream
from .task import LabeledExample, TaskBinding, check_batch, sample_batch, score_prompt

Triple = tuple[str, str, str]


# ---------------------------------------------------------------------------
# history types


@dataclass(frozen=True)
class PromptRecord:
    """One optimization step: the instruction, and in gradient mode the
    error analysis written on it, which later rounds condition on."""

    prompt_text: str
    gradient_text: str | None = None


def momentum_weights(alpha: float, t: int) -> tuple[float, ...]:
    """Mixture weights over records 0..t, oldest first, summing to 1.

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
    return tuple(w / total for w in raw)


def sample_source(weights: Sequence[float], rng: RandomStream) -> int:
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


# Each mode's rewrite prompt, TGD's fixed meta-prompts: only the mode
# decides which one a round sends.
_REFINE = {
    GenerationMode.CASE1_META_PROMPT: templates.REFINE_PROMPT,
    GenerationMode.CASE2_GRADIENT: templates.REFINE_WITH_FEEDBACK_PROMPT,
    GenerationMode.CONCAT_BASELINE: templates.CONCAT_HISTORY_PROMPT,
}


@dataclass
class GenerationParams:
    """Knobs of one candidate-generation pass. ``temperature`` left as None
    is filled by the :class:`RunConfig` that holds these params; until then
    a request built from them is refused."""

    alpha: float = 0.6
    max_total_tokens: int = 100
    block_tokens: int = 10
    temperature: float | None = None
    candidates: int = 20
    mode: GenerationMode = GenerationMode.CASE1_META_PROMPT

    def __post_init__(self) -> None:
        self.mode = GenerationMode(self.mode)
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must be in [0, 1], got {self.alpha}")
        check_minimums(self, max_total_tokens=1, temperature=0, candidates=1)
        if self.block_tokens < 1 or self.block_tokens > self.max_total_tokens:
            raise DomainError(
                f"block_tokens must be in [1, max_total_tokens], got {self.block_tokens}"
            )


class HypothesisPreset(str, Enum):
    H0 = "H0"
    H1 = "H1"
    CUSTOM = "custom"


@dataclass
class RunConfig:
    """Hyperparameters of one optimization run.

    Presets pin the two standard operating points: H0 is temperature 0.7
    with patience 2, H1 temperature 1.1 with patience 5. A preset fills
    ``patience`` and ``generation.temperature`` when they are None and
    refuses any other value; custom fills them with 2 and 0.7 and takes
    any value given.
    """

    total_iterations: int = 20
    batch_size: int = 20
    train_size: int = 400
    patience: int | None = None
    hypothesis_preset: HypothesisPreset = HypothesisPreset.H0
    seed: int = 0
    generation: GenerationParams = field(default_factory=GenerationParams)
    use_momentum: bool = True
    sample_with_replacement: bool = False

    def __post_init__(self) -> None:
        preset = self.hypothesis_preset = HypothesisPreset(self.hypothesis_preset)
        # (patience, temperature): H1's, else H0's, which custom fills in too.
        patience, temperature = (5, 1.1) if preset is HypothesisPreset.H1 else (2, 0.7)
        if self.patience is None:
            self.patience = patience
        # The temperature is filled on a copy: the caller's GenerationParams
        # may be shared with other configs.
        if self.generation.temperature is None:
            self.generation = dataclasses.replace(self.generation, temperature=temperature)
        if preset is not HypothesisPreset.CUSTOM:
            for name, value, point in (
                ("patience", self.patience, patience),
                ("generation.temperature", self.generation.temperature, temperature),
            ):
                if value != point:
                    raise DomainError(
                        f"{name}: preset {preset.value} sets {point}, got {value}; "
                        "choose it under hypothesis_preset: custom"
                    )
        check_minimums(self, total_iterations=0, batch_size=1, train_size=1, patience=1)


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
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimization run: its rows and why it stopped."""

    per_iteration: tuple[IterationRow, ...]
    stop_reason: StopReason

    @property
    def best_row(self) -> IterationRow:
        """The earliest row with the highest holdout score."""
        return max(self.per_iteration, key=lambda row: row.holdout_score)

    @property
    def best_prompt(self) -> str:
        return self.best_row.selected_prompt

    @property
    def best_score(self) -> float:
        return self.best_row.holdout_score

    @property
    def total_lm_calls(self) -> int:
        """Every gateway call of the run: the last row is taken after its
        last call."""
        return self.per_iteration[-1].gateway_calls

    def to_dict(self) -> dict:
        return {
            "best_prompt": self.best_prompt,
            "best_holdout_score": self.best_score,
            "stop_reason": self.stop_reason.value,
            "total_lm_calls": self.total_lm_calls,
            "per_iteration": [row.to_dict() for row in self.per_iteration],
        }


# ---------------------------------------------------------------------------
# candidate generation


def draw_plan(weights: Sequence[float], blocks: int, rng: RandomStream) -> tuple[int, ...]:
    """The source record of each of a candidate's ``blocks`` blocks:
    ``blocks`` successive :func:`sample_source` draws on ``rng``."""
    return tuple(sample_source(weights, rng) for _ in range(blocks))


def _conditioning_text(gen: GenerationParams, history: Sequence[PromptRecord], source: int) -> str:
    """The rewrite conditioning of a block drawn from ``history[source]``:
    the mode's prompt over the whole history joined in concat mode, else
    over the source record, which in gradient mode travels with its own
    error analysis (the case1 prompt renders ``prompt`` alone)."""
    template = _REFINE[gen.mode]
    if gen.mode is GenerationMode.CONCAT_BASELINE:
        return template.format(history="\n".join(record.prompt_text for record in history))
    record = history[source]
    return template.format(prompt=record.prompt_text, gradient=record.gradient_text)


# ---------------------------------------------------------------------------
# update step


def _argmax(scores: list[float]) -> tuple[int, float, list[float]]:
    """The winner's index and score, lowest index winning ties, and every
    candidate's score, empty for a lone candidate: it is scored, but there
    is nothing to compare."""
    index = max(range(len(scores)), key=scores.__getitem__)
    return index, scores[index], scores if len(scores) > 1 else []


class _Round:
    """Round ``t = len(history) - 1``: in gradient mode the forward passes
    of ``batch`` and their error analysis, then the k candidates for the
    next instruction and their holdout passes.

    :meth:`tasks` is the round's queue: the batch passes, then one task per
    candidate. The last batch pass to finish queues the analysis, which the
    round builds from the batch triples and tags ``analyze/iter{t}``; its
    answer makes ``history[-1]`` the instruction with its analysis. The
    round stamps ``seed`` as the ``sample_seed`` of the analysis and the
    refine blocks when they are sampled (0 when greedy), so a cache shared
    by several runs keeps their draws apart.

    Candidate ``j`` draws its plan, the source record of each block, in its
    first task: the newest record, except for momentum over several
    records, which takes the :func:`draw_plan` of its own
    ``substream(seed, STREAM_CANDIDATES, t, j)``. Block ``b`` asks for up
    to block_tokens more tokens on its source's conditioning (the joined
    history in concat mode) followed by the candidate so far, until the
    budget is spent or the backend stops on its own. Each record is
    rendered once, when a block first needs it.

    A candidate sends blocks while the next block's source record is
    complete. Only the newest record in gradient mode is not, until its
    analysis returns. A task that reaches a block drawn from it parks,
    returning None rather than waiting, and the analysis queues the parked
    candidates in candidate order. A finished candidate queues its
    :meth:`TaskBinding.hit` passes over ``task.holdout``, tagged
    ``score/iter{t}/cand{j}/ex{i}``.
    """

    def __init__(
        self,
        history: list[PromptRecord],
        gen: GenerationParams,
        momentum: bool,
        seed: int,
        lm: Backend,
        task: TaskBinding,
        batch: Sequence[LabeledExample],
    ) -> None:
        self.history = history
        self.gen = gen
        self.seed = seed
        self.lm = lm
        self.task = task
        self.batch = batch
        self.t = len(history) - 1
        self.sample_seed = seed if gen.temperature else 0
        self.conditioning = functools.cache(functools.partial(_conditioning_text, gen, history))
        self.weights = None
        if momentum and self.t > 0 and gen.mode is not GenerationMode.CONCAT_BASELINE:
            self.weights = momentum_weights(gen.alpha, self.t)
        k = gen.candidates
        self.plans: list[tuple[int, ...] | None] = [None] * k
        self.parts: list[list[str]] = [[] for _ in range(k)]
        self.next = [0] * k
        self.texts = [""] * k
        self.hits = [[False] * len(task.holdout) for _ in range(k)]
        self.triples: list[Triple | None] = [None] * len(batch)
        self.remaining = len(batch)
        self.ready = not batch  # whether the newest record is complete
        self.parked: list[int] = []
        self._lock = threading.Lock()

    def tasks(self) -> list[Task]:
        return [functools.partial(self._predict, i) for i in range(len(self.batch))] + [
            functools.partial(self._candidate, j) for j in range(len(self.texts))
        ]

    def _predict(self, i: int) -> list[Task] | None:
        example = self.batch[i]
        raw, parsed = self.task.predict(
            self.lm, self.history[-1].prompt_text, example.input_text, f"predict/iter{self.t}/ex{i}"
        )
        self.triples[i] = (example.input_text, example.gold_label, parsed if parsed is not None else raw.strip())
        with self._lock:  # the last pass to finish queues the analysis
            self.remaining -= 1
            return None if self.remaining else [self._analyze]

    def _analyze(self) -> list[Task]:
        gen, prompt = self.gen, self.history[-1].prompt_text
        examples = templates.format_triples(self.triples)
        request = CompletionRequest(
            prompt_text=templates.ANALYZE_PROMPT.format(prompt=prompt, examples=examples),
            max_new_tokens=gen.max_total_tokens,
            temperature=gen.temperature,
            request_tag=f"analyze/iter{self.t}",
            sample_seed=self.sample_seed,
        )
        self.history[-1] = PromptRecord(prompt, self.lm.complete(request).text)
        with self._lock:
            self.ready = True
            return [functools.partial(self._candidate, j) for j in sorted(self.parked)]

    def write(self, j: int) -> str | None:
        """Send candidate ``j``'s next blocks; return the candidate, or None
        where it parks. The next call resumes at the parked block."""
        gen, parts = self.gen, self.parts[j]
        plan = self.plans[j]
        if plan is None:  # the candidate's first task draws its plan
            blocks = math.ceil(gen.max_total_tokens / gen.block_tokens)
            if self.weights is None:
                plan = (self.t,) * blocks
            else:
                plan = draw_plan(self.weights, blocks, substream(self.seed, STREAM_CANDIDATES, self.t, j))
            self.plans[j] = plan
        while self.next[j] < len(plan):
            b = self.next[j]
            # ready only turns true, so a true read needs no lock.
            if plan[b] == self.t and not self.ready:
                with self._lock:
                    if not self.ready:
                        self.parked.append(j)
                        return None
            result = self.lm.complete(
                CompletionRequest(
                    prompt_text=self.conditioning(plan[b]) + "".join(parts),
                    max_new_tokens=min(gen.block_tokens, gen.max_total_tokens - b * gen.block_tokens),
                    temperature=gen.temperature,
                    request_tag=f"refine/iter{self.t}/cand{j}/block{b}",
                    sample_seed=self.sample_seed,
                )
            )
            parts.append(result.text)
            self.next[j] = b + 1 if result.finish_reason is FinishReason.LENGTH else len(plan)
        return "".join(parts)

    def _candidate(self, j: int) -> list[Task] | None:
        text = self.write(j)
        if text is None:  # parked: the analysis queues this task again
            return None
        self.texts[j] = text
        return [functools.partial(self._hit, j, i) for i in range(len(self.hits[j]))]

    def _hit(self, j: int, i: int) -> None:
        self.hits[j][i] = self.task.hit(
            self.lm, self.texts[j], self.task.holdout[i], f"score/iter{self.t}/cand{j}/ex{i}"
        )

    def select(self) -> tuple[int, float, list[float]]:
        """The :func:`_argmax` of the candidates' mean hits."""
        return _argmax([sum(row) / len(row) for row in self.hits])


# ---------------------------------------------------------------------------
# outer loop


def run_tsgd(
    config: RunConfig,
    task: TaskBinding,
    lm: Backend,
    max_lm_calls: int | None = None,
    pool: CallPool = SEQUENTIAL,
) -> RunResult:
    """Optimize ``task.initial_prompt`` for ``config.total_iterations`` rounds.

    Each round makes k candidates for the next instruction, written block
    by block by the update rule as :class:`_Round` describes; in gradient
    mode it first runs the current instruction over a sampled train batch
    and asks the backend for an error analysis. The other modes read only
    prompt texts, so they draw no batch. A prompt's score is its mean
    :meth:`TaskBinding.hit` over the holdout split: the task's own rule,
    which a test pass through :func:`score_prompt` applies too. The run
    stops early once the best holdout score has gone ``config.patience``
    consecutive rounds without strict improvement, and always returns the
    highest-scoring prompt seen, including the initial one.

    All randomness descends from ``config.seed``. Round t runs over the
    t + 1 records so far (t is ``len(history) - 1``), builds its own
    analysis request and stamps the seed on each sampled request it sends,
    as its ``sample_seed``. A train pool that
    :func:`sample_batch` would refuse fails before the first call, in every
    mode. On failure the partial row list is attached to the raised
    exception as ``partial_run_log``.

    Every gateway call runs on ``pool``, up to its ``max_inflight`` at
    once. The caller owns the pool: the run neither opens nor closes it, so
    one pool can also serve whatever the caller runs next, such as a test
    pass. Each round is one ``pool.run`` of a :class:`_Round` queue, in
    which every call is queued as soon as the values it reads exist. Every
    request and its place in the result are fixed before it is sent, so the
    result is byte-identical at every pool width. The default,
    :data:`SEQUENTIAL`, has width 1 and runs each queue in order in the
    caller's thread: the batch passes, each candidate up to its first block
    drawn from the newest record before the analysis, the analysis, then
    the holdout passes and the parked candidates in the order they joined.
    """
    counter = CallCounter(lm, max_calls=max_lm_calls)
    gen = config.generation
    train = task.train[: config.train_size]
    history: list[PromptRecord] = []
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
        best = score_prompt(task, current_prompt, task.holdout, counter, pool=pool)
        snapshot(0, current_prompt, best, (), 0)
        stop_reason = StopReason.MAX_ITERATIONS
        stale = 0
        for t in range(config.total_iterations):
            history.append(PromptRecord(current_prompt))
            batch = ()
            if gen.mode is GenerationMode.CASE2_GRADIENT:
                batch = sample_batch(
                    train,
                    config.batch_size,
                    substream(config.seed, STREAM_BATCH, t),
                    with_replacement=config.sample_with_replacement,
                )
            step = _Round(history, gen, config.use_momentum, config.seed, counter, task, batch)
            pool.run(step.tasks())
            index, value, cand_scores = step.select()
            current_prompt = step.texts[index]
            snapshot(t + 1, current_prompt, value, cand_scores, index)

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

    return RunResult(per_iteration=tuple(rows), stop_reason=stop_reason)
