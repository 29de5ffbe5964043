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
from typing import Callable, Sequence

from . import templates
from .errors import DomainError, EmptyBatchError, EmptyHistoryError, check_minimums
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


# ---------------------------------------------------------------------------
# history types


@dataclass(frozen=True)
class PromptRecord:
    """One optimization step: the instruction, and in gradient mode its
    batch evidence and the error analysis written on it."""

    iteration: int
    prompt_text: str
    gradient_text: str | None = None
    batch_triples: tuple[Triple, ...] = ()

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise DomainError(f"iteration must be >= 0, got {self.iteration}")
        object.__setattr__(
            self, "batch_triples", tuple(tuple(triple) for triple in self.batch_triples)
        )


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


_DEFAULT_REFINE = {
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
    refine_template: str | None = None
    analyze_template: str | None = None

    def __post_init__(self) -> None:
        self.mode = GenerationMode(self.mode)
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must be in [0, 1], got {self.alpha}")
        check_minimums(self, max_total_tokens=1, temperature=0, candidates=1)
        if self.block_tokens < 1 or self.block_tokens > self.max_total_tokens:
            raise DomainError(
                f"block_tokens must be in [1, max_total_tokens], got {self.block_tokens}"
            )
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
            "best_score": self.best_score,
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


class _Draft:
    """A candidate written block by block: block ``b`` asks for up to
    block_tokens more tokens on the conditioning of its source record,
    followed by the candidate so far, until the total budget is spent or
    the backend stops on its own.

    ``sources`` holds the source of every block, and ``conditioning`` renders
    a source. :meth:`write` sends blocks while ``admits`` lets their source
    through and returns the candidate, or None at the first block held
    back; the next :meth:`write` resumes at that block.
    """

    def __init__(
        self,
        sources: Sequence[int],
        conditioning: Callable[[int], str],
        gen: GenerationParams,
        lm: Backend,
        tag_prefix: str,
    ) -> None:
        self.sources = sources
        self.conditioning = conditioning
        self.gen = gen
        self.lm = lm
        self.tag_prefix = tag_prefix
        self.parts: list[str] = []
        self.block = self.produced = 0

    def write(self, admits: Callable[[int], bool] | None = None) -> str | None:
        gen = self.gen
        while self.block < len(self.sources):
            source = self.sources[self.block]
            if admits is not None and not admits(source):
                return None
            budget = min(gen.block_tokens, gen.max_total_tokens - self.produced)
            request = CompletionRequest(
                prompt_text=self.conditioning(source) + "".join(self.parts),
                max_new_tokens=budget,
                temperature=gen.temperature,
                request_tag=f"{self.tag_prefix}/block{self.block}",
            )
            result = self.lm.complete(request)
            self.parts.append(result.text)
            self.produced += budget
            self.block = self.block + 1 if result.finish_reason is FinishReason.LENGTH else len(self.sources)
        return "".join(self.parts)


def generate_candidate(
    conditioning: Sequence[str],
    gen: GenerationParams,
    lm: Backend,
    tag_prefix: str,
) -> str:
    """One candidate whose block ``b`` is conditioned on ``conditioning[b]``:
    a :class:`_Draft` with every source ready."""
    return _Draft(range(len(conditioning)), conditioning.__getitem__, gen, lm, tag_prefix).write()


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


class _Gate:
    """Holds back the blocks drawn from record ``newest`` until its error
    analysis returns. A draft held back parks: it joins ``waiting``, where
    the candidates not yet started are too, and its task returns, so no
    pooled task ever waits on the gate. :meth:`open` lets every block
    through and hands back the waiting candidates in candidate order."""

    def __init__(self, newest: int, waiting: list[int]) -> None:
        self.newest = newest
        self.waiting = waiting
        self.is_open = False
        self._lock = threading.Lock()

    def admits(self, j: int, source: int) -> bool:
        """Whether candidate ``j`` may send a block drawn from ``source``;
        if not, ``j`` is parked."""
        # is_open only turns true, so a true read needs no lock.
        if source != self.newest or self.is_open:
            return True
        with self._lock:
            if not self.is_open:
                self.waiting.append(j)
            return self.is_open

    def open(self) -> list[int]:
        with self._lock:
            self.is_open = True
            return sorted(self.waiting)


def _maker(
    records: Sequence[PromptRecord],
    gen: GenerationParams,
    momentum: bool,
    root_seed: int,
    lm: Backend,
    gate: _Gate | None = None,
) -> Callable[[int], str | None]:
    """Maker of candidate ``j`` of round ``t``, the iteration of
    ``records[-1]``. Its :class:`_Draft` takes each block's source by the
    update rule:

    - concat: the newest record, whose conditioning is the joined history;
    - vanilla, or momentum over a single record: the newest record, with no
      draw;
    - momentum: the :func:`draw_plan` of candidate ``j``, drawn from its own
      ``substream(root_seed, STREAM_CANDIDATES, t, j)`` in its first call.

    Each record is rendered once per round, when a block first needs it, so
    ``records`` may still gain the newest record's error analysis. A call
    writes the draft as far as ``gate`` admits and returns the candidate,
    or None where the draft parked; the next call resumes it. Without a
    gate every source is ready.
    """
    if len(records) == 0:
        raise EmptyHistoryError("an update needs at least one record")
    newest = len(records) - 1
    t = records[newest].iteration
    blocks = math.ceil(gen.max_total_tokens / gen.block_tokens)
    weights = None
    if gen.mode is GenerationMode.CONCAT_BASELINE:
        joined = concat_momentum_prompt(records, gen.refine_template)
        conditioning = lambda source: joined
    else:
        conditioning = functools.cache(lambda source: _conditioning_text(gen, records[source]))
        if momentum and newest > 0:
            weights = momentum_weights(gen.alpha, newest)

    drafts: dict[int, _Draft] = {}

    def make(j: int) -> str | None:
        draft = drafts.get(j)
        if draft is None:  # the draft's first call draws its plan
            if weights is None:
                sources = (newest,) * blocks
            else:
                sources = draw_plan(weights, blocks, substream(root_seed, STREAM_CANDIDATES, t, j))
            draft = drafts[j] = _Draft(sources, conditioning, gen, lm, _candidate_tag(t, j))
        return draft.write(None if gate is None else functools.partial(gate.admits, j))

    return make


def _argmax(scores: list[float]) -> tuple[int, float, list[float]]:
    """The winner's index and score, lowest index winning ties, and every
    candidate's score, empty for a lone candidate: it is scored, but there
    is nothing to compare."""
    index = max(range(len(scores)), key=scores.__getitem__)
    return index, scores[index], scores if len(scores) > 1 else []


class _Candidates:
    """The k candidates of iteration ``t``. :meth:`tasks` writes candidate
    ``j`` in task ``j``. The task that finishes it returns the candidate's
    forward passes over ``score``'s examples, tagged
    ``{score.tag}/iter{t}/cand{j}/ex{i}``, so scoring starts as soon as the
    candidate is made."""

    def __init__(self, k: int, score: ScoreFunction, t: int) -> None:
        self.texts = [""] * k
        self.hits = [[False] * len(score.examples) for _ in range(k)]
        self.scorers = [dataclasses.replace(score, tag=f"{score.tag}/iter{t}/cand{j}") for j in range(k)]

    def tasks(self, make: Callable[[int], str | None]) -> list[Task]:
        return [functools.partial(self._generate, make, j) for j in range(len(self.texts))]

    def _generate(self, make: Callable[[int], str | None], j: int) -> list[Task] | None:
        text = make(j)
        if text is None:  # parked: the round's analysis queues this task again
            return None
        self.texts[j] = text
        return [functools.partial(self._forward, j, i) for i in range(len(self.hits[j]))]

    def _forward(self, j: int, i: int) -> None:
        self.hits[j][i] = self.scorers[j].hit(self.texts[j], i)

    def select(self) -> tuple[int, float, list[float]]:
        """The :func:`_argmax` of the candidates' mean hits."""
        return _argmax([sum(row) / len(row) for row in self.hits])


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
    ``substream(config.seed, STREAM_CANDIDATES, t, j)``, which nothing else
    reads. A prompt's score is its mean hit over the holdout split. The run
    stops early once the best holdout score has gone ``config.patience``
    consecutive rounds without strict improvement, and always returns the
    highest-scoring prompt seen, including the initial one.

    All randomness descends from ``config.seed``, and sampled requests
    carry it as their ``sample_seed``. A train pool that
    :func:`sample_batch` would refuse fails before the first call, in every
    mode. On failure the partial row list is attached to the raised
    exception as ``partial_run_log``.

    Every gateway call runs on ``pool``, up to its ``max_inflight`` at
    once. The caller owns the pool: the run neither opens nor closes it, so
    one pool can also serve whatever the caller runs next, such as a test
    pass. Each iteration is one ``pool.run`` of a queue in which every call
    is queued as soon as the values it reads exist. Each candidate is a
    draft that sends its blocks in order while the source record of the
    next block is complete. Only the round's newest record in gradient mode
    is incomplete: its blocks wait for its error analysis.

    - In case1 and concat mode the queue starts with the k drafts, which
      never wait.
    - In gradient mode it starts with the batch forward passes, and in
      momentum mode after round 0 with the k drafts behind them. A draft
      that reaches a block drawn from the newest record before the analysis
      has returned parks: its task returns, so no pooled task ever waits.
      The last forward pass to finish queues the analysis. The analysis
      queues the parked drafts, in vanilla mode and in round 0 all k
      drafts, in candidate order.

    As soon as candidate j is complete, its |holdout| forward passes join
    the queue. The round's record is appended to the history as the round
    starts; in gradient mode the analysis adds its batch triples and error
    analysis.

    Every request and its place in the result are fixed before it is sent,
    so the result is byte-identical at every pool width. The default,
    :data:`SEQUENTIAL`, has width 1 and runs each queue in order in the
    caller's thread. In case1 and concat mode that is the k drafts, then
    the holdout passes by candidate and example. In gradient mode it is the
    forward passes, the analysis, the k drafts, then the holdout passes;
    after round 0 momentum mode instead runs the forward passes, each draft
    up to its first block drawn from the newest record, the analysis, the
    holdout passes of the drafts that never drew it, the rest of the parked
    drafts and then their holdout passes.
    """
    counter = CallCounter(_RunDraws(lm, config.seed), max_calls=max_lm_calls)
    gen = config.generation
    score = task.score_function(counter, pool=pool)
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
        best = score(current_prompt)
        snapshot(0, current_prompt, best, (), 0)
        stop_reason = StopReason.MAX_ITERATIONS
        stale = 0
        for t in range(config.total_iterations):
            history.append(PromptRecord(iteration=t, prompt_text=current_prompt))
            pick = _Candidates(gen.candidates, score, t)
            if gen.mode is not GenerationMode.CASE2_GRADIENT:
                pool.run(pick.tasks(_maker(history, gen, config.use_momentum, config.seed, counter)))
            else:
                # Only a momentum draft over several records can draw an older
                # record, so only those start early; the analysis starts the rest.
                early = config.use_momentum and t > 0
                gate = _Gate(t, [] if early else list(range(gen.candidates)))
                drafts = pick.tasks(_maker(history, gen, config.use_momentum, config.seed, counter, gate))
                batch = sample_batch(
                    train,
                    config.batch_size,
                    substream(config.seed, STREAM_BATCH, t),
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
                    record = dataclasses.replace(history[-1], batch_triples=tuple(triples))
                    gradient = compute_textual_gradient(
                        record, gen.analyze_template, counter, gen, tag=f"analyze/iter{t}"
                    )
                    history[-1] = dataclasses.replace(record, gradient_text=gradient)
                    return [drafts[j] for j in gate.open()]

                pool.run([functools.partial(forward, i) for i in range(len(batch))] + (drafts if early else []))
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

    return RunResult(per_iteration=tuple(rows), stop_reason=stop_reason)
