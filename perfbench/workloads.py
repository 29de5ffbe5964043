"""The benchmark's workloads.

Each is a closed loop: one trial at a time and one gateway call in flight.
A workload runs units (trials, record/replay cycles or grids) until it has
run its minimum count and the run's seconds have passed, then runs unit 0
again as the seeded repeat. In a traced run the odd units among the first
``min_units`` are traced, so the same run gives untraced times, traced times
and their gap, and traced data stays bounded however long the run.

Counts, tokens and accuracy come from a fixed, seeded set of units, so they
repeat exactly for a seed. Unit times are medians over every untraced unit of
the run; set-up time is the fastest set-up (see ``SETUP_REPEATS``).
"""

from __future__ import annotations

import copy
import gc
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import tsgdm.cli as cli
import tsgdm.variance as variance_lab
from tsgdm.cli import (
    DEFAULT_SCRIPTED_RESPONSE,
    DEFAULT_SCRIPTED_RULES,
    build_cache,
    build_task,
    parse_config_data,
)
from tsgdm.gateway import ScriptedBackend
from tsgdm.optimizer import momentum_weights, sample_source
from tsgdm.rng import STREAM_BATCH, STREAM_CANDIDATES, STREAM_VARIANCE, substream
from tsgdm.task import parse_label, sample_batch
from tsgdm.templates import render_forward

import layers
from layers import PHASES, mean, median
from sampling_backend import SamplingBackend
from tracing import GatewayProbe, Tracer, patched, span, spanned

# The paper's method: momentum over the history in gradient mode, k=20
# candidates scored on a 16-example holdout. Early stop is off (patience
# exceeds the iteration count) so every iteration does its work.
LIVE_DOC = {
    "run": {
        "total_iterations": 3,
        "batch_size": 10,
        "patience": 4,
        "hypothesis_preset": "custom",
        "generation": {
            "alpha": 0.6,
            "candidates": 20,
            "mode": "case2_gradient",
            "temperature": 0.7,
            "max_total_tokens": 40,
            "block_tokens": 10,
        },
    },
    "task": {"name": "synthetic", "synthetic_train": 40, "synthetic_holdout": 16, "synthetic_test": 128},
}
# Simulated remote latency: 1 ms base (jittered +-25%) plus 0.05 ms per
# completion token. A remote model takes tens of ms; 1 ms keeps gateway waits
# dominant while a trial still fits a few times in one run.
LIVE_LATENCY_MS = (1.0, 0.05)
LIVE_MIN_TRIALS = 8
# Test accuracy, calls and tokens are means over this many trials, run with
# the backend's latency at zero (it changes no answer). A trial's accuracy
# varies by about 0.1, so with fewer trials the mean's quartile spread across
# seeds grows past a third of test_accuracy's bound.
LIVE_QUALITY_TRIALS = 240

# The concat baseline over a 40-step history, early stop off: the conditioning
# prompt grows with the history. replay_concat runs it with no backend latency,
# so time is harness plus cache.
REPLAY_DOC = {
    "run": {
        "total_iterations": 40,
        "batch_size": 8,
        "patience": 41,
        "hypothesis_preset": "custom",
        "generation": {
            "candidates": 4,
            "mode": "concat_baseline",
            "temperature": 0.7,
            "max_total_tokens": 40,
            "block_tokens": 10,
        },
    },
    "task": {"name": "synthetic", "synthetic_train": 40, "synthetic_holdout": 8, "synthetic_test": 128},
}
REPLAY_MIN_CYCLES = 40

# The same concat trial over a 20-step history for live latency, where a trial
# takes about 1.4 s.
LIVE_CONCAT_DOC = copy.deepcopy(REPLAY_DOC)
LIVE_CONCAT_DOC["run"].update(total_iterations=20, patience=21)
LIVE_CONCAT_MIN_TRIALS = 8
LIVE_CONCAT_QUALITY_TRIALS = 640

# The variance command's default grid: alphas, horizons, sigma, Monte Carlo trials.
VARIANCE_GRID = ((0.1, 0.3, 0.5, 0.7, 0.9), (1, 2, 5, 10, 20, 50), 1.0, 100_000)
VARIANCE_MIN_GRIDS = 4

# Set-up takes well under a millisecond. Right after a trial it runs with
# cold caches, and on a shared host the same warm set-up takes 0.4 ms or
# 0.8 ms by turns for seconds at a time, so a median over a run moves by a
# third between runs. setup_s is therefore the fastest of many set-ups spread
# over the run: rounds of SETUP_REPEATS back to back before every timed unit
# and every SETUP_EVERY-th quality trial (replay cycles load a cache file and
# repeat less).
SETUP_REPEATS = 20
SETUP_EVERY = 8
REPLAY_SETUP_REPEATS = 5

Metric = tuple[float, str]


@dataclass
class Run:
    """One workload run's inputs."""

    seed: int
    seconds: float
    tracer: Tracer | None
    work: Path


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)
    samples: dict[str, str] = field(default_factory=dict)
    layers: dict[str, Metric] = field(default_factory=dict)
    overhead: float | None = None

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def timing(self, name: str, values: list[float]) -> None:
        self.metrics[name] = (median(values), "s")
        self.samples[name] = f"median of {len(values)}"

    def fastest(self, name: str, values: list[float]) -> None:
        self.metrics[name] = (min(values), "s")
        self.samples[name] = f"fastest of {len(values)}"

    def count_trials(self, trials: list["Trial"]) -> None:
        """Failed trials count against attempted ones."""
        self.attempted += len(trials)
        self.failed += sum(1 for trial in trials if not trial.ok)
        self.metrics["trial_success_ratio"] = ((self.attempted - self.failed) / self.attempted, "ratio")
        self.metrics["trial_fail_ratio"] = (self.failed / self.attempted, "ratio")
        for trial in trials:
            if not trial.ok:
                self.check(False, f"trial failed: {trial.record['error']}")

    def quality(self, trials: list["Trial"]) -> None:
        """Per-trial means over a fixed set of trials."""
        done = [trial for trial in trials if trial.ok]
        self.metrics["test_accuracy"] = (mean(t.record["final_test_accuracy"] for t in done), "ratio")
        self.metrics["calls_per_trial"] = (mean(t.probe.calls for t in done), "count")
        self.metrics["prompt_tokens_per_trial"] = (mean(t.probe.prompt_tokens for t in done), "count")
        self.metrics["completion_tokens_per_trial"] = (mean(t.probe.completion_tokens for t in done), "count")


@dataclass
class Unit:
    index: int
    traced: bool
    seconds: float
    data: Any


def closed_loop(run: Run, min_units: int, unit: Callable[[int, Tracer | None], tuple[float, Any]]) -> list[Unit]:
    """Run units 0, 1, ... until ``min_units`` ran and ``run.seconds``
    passed, then unit 0 again, untraced, as the seeded repeat (last). Each
    unit starts after a full garbage collection, so no unit pays for the
    garbage of the one before."""
    deadline = perf_counter() + run.seconds
    units = []
    index = 0
    while index < min_units or perf_counter() < deadline:
        tracer = run.tracer if index % 2 and index < min_units else None
        gc.collect()
        units.append(Unit(index, tracer is not None, *unit(index, tracer)))
        index += 1
    gc.collect()
    units.append(Unit(0, False, *unit(0, None)))
    return units


def tracing_overhead(units: list[Unit]) -> float | None:
    traced = [u.seconds for u in units if u.traced]
    untraced = [u.seconds for u in units if not u.traced]
    return median(traced) / median(untraced) - 1.0 if traced and untraced else None


# ---------------------------------------------------------------------------
# optimizer trials


def trial_seed(run: Run, index: int) -> int:
    return run.seed * 1000 + index


def config_doc(template: dict, trial_seed: int, task_seed: int, **backend: str) -> dict:
    """A one-trial config whose trial runs with ``trial_seed``."""
    doc = copy.deepcopy(template)
    doc["seed_base"] = trial_seed
    doc["task"]["synthetic_seed"] = task_seed
    if backend:
        doc["backend"] = backend
    return doc


@dataclass
class Setup:
    config: Any
    task: Any
    cache: Any
    seconds: list[float]
    parse_s: list[float]
    task_s: list[float]
    cache_s: list[float]


def set_up(doc: dict, tracer: Tracer | None, repeats: int = 1) -> Setup:
    """Config parse, task build and cache build (a load for replay), as the
    CLI sets up a run; repeated, keeping the last."""
    setup = Setup(None, None, None, [], [], [], [])
    for _ in range(repeats):
        t0 = perf_counter()
        with span(tracer, "parse_config_data"):
            setup.config = parse_config_data(doc)
        t1 = perf_counter()
        with span(tracer, "build_task"):
            setup.task = build_task(setup.config.task)
        t2 = perf_counter()
        with span(tracer, "build_cache"):
            setup.cache = build_cache(setup.config.backend)
        t3 = perf_counter()
        setup.seconds.append(t3 - t0)
        setup.parse_s.append(t1 - t0)
        setup.task_s.append(t2 - t1)
        setup.cache_s.append(t3 - t2)
    return setup


@dataclass
class Trial:
    record: dict
    output: bytes
    seconds: float
    probe: GatewayProbe
    inner: GatewayProbe
    span_ids: list[int]
    write_s: float

    @property
    def ok(self) -> bool:
        return self.record["status"] == "complete"


def run_trial(setup: Setup, model, tracer: Tracer | None, trial_id: str, out_path: Path) -> Trial:
    """Trial 0 of ``setup`` as the CLI runs it (``cli._run_one_trial``), then
    its record written as the CLI writes it.

    The CLI's ``build_backend`` runs unchanged, except that the scripted
    backend it would build is ``model`` behind the inner probe (the calls
    that reach the model); the backend it returns is wrapped in the outer
    probe (the calls the program makes). A traced trial also opens a span
    around the CLI's ``run_tsgd`` and final ``score_prompt``.
    """
    inner = GatewayProbe(model)
    probes: list[GatewayProbe] = []
    span_ids: list[int] = []
    build_backend = cli.build_backend

    def probed_backend(settings, cache):
        with patched(cli, "ScriptedBackend", lambda **_: inner):
            probes.append(GatewayProbe(build_backend(settings, cache), tracer))
        return probes[-1]

    with ExitStack() as stack:
        stack.enter_context(patched(cli, "build_backend", probed_backend))
        if tracer is not None:
            tracer.trial = trial_id
            for name in ("run_tsgd", "score_prompt"):
                stack.enter_context(patched(cli, name, spanned(tracer, name, getattr(cli, name), span_ids)))
        start = perf_counter()
        record = cli._run_one_trial(setup.config, setup.task, setup.cache, 0)
        seconds = perf_counter() - start
    write_start = perf_counter()
    cli._dump_json(out_path, record)
    write_s = perf_counter() - write_start
    return Trial(record, out_path.read_bytes(), seconds, probes[0], inner, span_ids, write_s)


def harness_seconds(self_times: dict[int, float], trial: Trial) -> float:
    """Trial self time: trial span time minus the gateway calls under it."""
    return sum(self_times[span_id] for span_id in trial.span_ids)


# ---------------------------------------------------------------------------
# live_momentum and live_concat


def _live(
    run: Run, name: str, template: dict, min_trials: int, quality_trials: int
) -> tuple[Outcome, list[Unit], list[Setup]]:
    """Trials of ``template`` against the sampling backend at live latency,
    after the quality trials."""
    out = Outcome()
    setups = [
        set_up(config_doc(template, trial_seed(run, i), run.seed), None, 1 if i % SETUP_EVERY else SETUP_REPEATS)
        for i in range(quality_trials)
    ]
    quality = [
        run_trial(setup, SamplingBackend(trial_seed(run, i)), None, f"{name}/quality/{i}", run.work / f"{name}-q.json")
        for i, setup in enumerate(setups)
    ]

    def unit(index: int, tracer: Tracer | None):
        seed = trial_seed(run, index)
        setup = set_up(config_doc(template, seed, run.seed), tracer, SETUP_REPEATS)
        backend = SamplingBackend(seed, *LIVE_LATENCY_MS)
        trial = run_trial(setup, backend, tracer, f"{name}/{index}", run.work / f"{name}-{index}.json")
        return trial.seconds, (setup, trial)

    units = closed_loop(run, min_trials, unit)
    trials = [u.data[1] for u in units]
    out.count_trials(quality + trials)
    out.check(trials[-1].output == trials[0].output, f"{name}: the seeded repeat changed the trial output")
    out.check(
        all(u.data[1].output == quality[u.index].output for u in units if u.index < quality_trials),
        f"{name}: a trial's output changed with the backend's latency",
    )
    untraced = [u for u in units if not u.traced]
    setups += [u.data[0] for u in untraced]
    out.fastest("setup_s", [s for setup in setups for s in setup.seconds])
    out.timing("trial_s", [u.seconds for u in untraced])
    out.quality(quality)
    if run.tracer is not None:
        out.overhead = tracing_overhead(units)
    return out, units, setups


def live_momentum(run: Run) -> Outcome:
    out, units, setups = _live(run, "live_momentum", LIVE_DOC, LIVE_MIN_TRIALS, LIVE_QUALITY_TRIALS)
    if run.tracer is not None:
        _live_layers(out, run, units, setups)
    return out


def live_concat(run: Run) -> Outcome:
    """The concat baseline without a cache, at live latency."""
    return _live(run, "live_concat", LIVE_CONCAT_DOC, LIVE_CONCAT_MIN_TRIALS, LIVE_CONCAT_QUALITY_TRIALS)[0]


def _live_layers(out: Outcome, run: Run, units: list[Unit], setups: list[Setup]) -> None:
    self_times = run.tracer.self_times()
    traced = [u for u in units if u.traced]
    # Traced units are a fixed set of indices, so counts repeat for a seed.
    logs = [u.data[1].probe.log for u in traced]
    layer = out.layers
    for name in ("calls_per_trial", "prompt_tokens_per_trial", "completion_tokens_per_trial"):
        layer[name] = out.metrics[name]
    totals = [layers.phase_totals(log) for log in logs]
    for phase in PHASES:
        layer[f"gateway.calls.{phase}"] = (mean(t[phase][0] for t in totals), "count")
        layer[f"gateway.prompt_tokens.{phase}"] = (mean(t[phase][1] for t in totals), "count")
        layer[f"gateway.completion_tokens.{phase}"] = (mean(t[phase][2] for t in totals), "count")
    busy = [(layers.busy_seconds(u.data[1].probe.log), u.seconds) for u in traced]
    layer["gateway.busy_s"] = (median(b for b, _ in busy), "s")
    layer["gateway.busy_share"] = (median(b / s for b, s in busy), "ratio")
    call_ms = [(end - start) * 1e3 for u in traced for _, _, start, end in u.data[1].probe.log]
    layer["gateway.call_ms_p50"] = (layers.percentile(call_ms, 50), "ms")
    layer["gateway.call_ms_p99"] = (layers.percentile(call_ms, 99), "ms")
    layer["gateway.distinct_digest_ratio"] = (mean(layers.distinct_digest_ratio(log) for log in logs), "ratio")
    setup = units[0].data[0]
    layer["gateway.stock_distinct_digest_ratio"] = (_stock_distinct_digest_ratio(setup, run.work), "ratio")
    layer["optimizer.blocks_per_candidate"] = (mean(layers.blocks_per_candidate(log) for log in logs), "count")
    layer["optimizer.candidates_distinct_ratio"] = (
        mean(layers.candidates_distinct_ratio(log) for log in logs),
        "ratio",
    )
    layer["optimizer.harness_share"] = (
        median(harness_seconds(self_times, u.data[1]) / u.seconds for u in traced),
        "ratio",
    )
    layer["task.score_prompt_calls"] = (mean(layers.score_prompt_calls(log) for log in logs), "count")
    label_set = setup.task.label_set
    layer["task.unparsed_ratio"] = (mean(layers.unparsed_ratio(log, label_set) for log in logs), "ratio")

    # Microbenchmarks on this workload's own inputs.
    config, task = setup.config, setup.task
    seed = config.run.seed
    iterations = config.run.total_iterations
    texts = layers.forward_texts(logs[0])
    layer["task.parse_label_us"] = (layers.per_call_us(lambda text: parse_label(text, label_set), texts), "us")
    prompts = [row["selected_prompt"] for row in units[0].data[1].record["per_iteration"]]
    pairs = [(prompt, example.input_text) for prompt in prompts for example in task.holdout]
    layer["templates.render_forward_us"] = (
        layers.per_call_us(lambda pair: render_forward(pair[0], pair[1], task.forward_template), pairs),
        "us",
    )
    pool = task.train[: config.run.train_size]
    streams = [substream(seed, STREAM_BATCH, t) for t in range(iterations)]
    layer["task.sample_batch_us"] = (
        layers.per_call_us(lambda rng: sample_batch(pool, config.run.batch_size, rng), streams),
        "us",
    )
    alpha = config.run.generation.alpha
    final_t = iterations - 1
    layer["optimizer.momentum_weights_us"] = (
        layers.per_call_us(lambda t: momentum_weights(alpha, t), [final_t]),
        "us",
    )
    weights = momentum_weights(alpha, final_t)
    rng = substream(seed, STREAM_CANDIDATES, final_t)
    layer["optimizer.sample_source_us"] = (layers.per_call_us(lambda w: sample_source(w, rng), [weights]), "us")
    keys = [(seed, stream, t) for stream in (STREAM_BATCH, STREAM_CANDIDATES) for t in range(iterations)]
    layer["rng.substream_us"] = (layers.per_call_us(lambda key: substream(*key), keys), "us")
    layer["cli.parse_config_ms"] = (min(s for setup in setups for s in setup.parse_s) * 1e3, "ms")
    layer["cli.build_task_ms"] = (min(s for setup in setups for s in setup.task_s) * 1e3, "ms")
    layer["cli.write_outputs_s"] = (median(u.data[1].write_s for u in units), "s")


def _stock_distinct_digest_ratio(setup: Setup, work: Path) -> float:
    """Distinct request digests over calls for the same trial against the
    stock scripted backend, the ratio a benchmark built on it would see."""
    stock = ScriptedBackend(rules=DEFAULT_SCRIPTED_RULES, default_response=DEFAULT_SCRIPTED_RESPONSE)
    trial = run_trial(setup, stock, Tracer(), "stock", work / "stock.json")
    return layers.distinct_digest_ratio(trial.probe.log)


# ---------------------------------------------------------------------------
# replay_concat


@dataclass
class Cycle:
    record: Trial
    replay: Trial
    replay_setup: Setup
    save_s: float
    cache_entries: int
    cache_bytes: int


def replay_concat(run: Run) -> Outcome:
    out = Outcome()

    def unit(index: int, tracer: Tracer | None):
        seed = trial_seed(run, index)
        path = run.work / f"cache-{index}.jsonl"
        path.unlink(missing_ok=True)
        record_doc = config_doc(REPLAY_DOC, seed, run.seed, cache_mode="record", cache_path=str(path))
        setup = set_up(record_doc, tracer)
        record = run_trial(
            setup, SamplingBackend(seed), tracer, f"replay_concat/{index}/record", run.work / f"record-{index}.json"
        )
        start = perf_counter()
        with span(tracer, "ReplayCache.save"):
            setup.cache.save(path)
        save_s = perf_counter() - start
        cache_entries, cache_bytes = len(setup.cache), path.stat().st_size

        replay_doc = config_doc(REPLAY_DOC, seed, run.seed, cache_mode="replay", cache_path=str(path))
        replay_setup = set_up(replay_doc, tracer, repeats=REPLAY_SETUP_REPEATS)
        replay = run_trial(
            replay_setup, SamplingBackend(seed), tracer,
            f"replay_concat/{index}/replay", run.work / f"replay-{index}.json",
        )
        path.unlink()
        setup.cache = replay_setup.cache = None  # a run keeps every cycle; caches are large
        cycle = Cycle(record, replay, replay_setup, save_s, cache_entries, cache_bytes)
        return replay.seconds, cycle

    units = closed_loop(run, REPLAY_MIN_CYCLES, unit)
    cycles: list[Cycle] = [u.data for u in units]
    out.count_trials([trial for c in cycles for trial in (c.record, c.replay)])
    for c in cycles:
        out.check(c.replay.output == c.record.output, "replay_concat: replay output differs from the record output")
        out.check(c.replay.inner.calls == 0, "replay_concat: the replay pass called the backend")
    out.check(
        cycles[-1].record.output == cycles[0].record.output,
        "replay_concat: the seeded repeat changed the trial output",
    )
    untraced = [u.data for u in units if not u.traced]
    out.fastest("setup_s", [s for c in untraced for s in c.replay_setup.seconds])
    out.timing("trial_s", [c.replay.seconds for c in untraced])
    out.timing("record_trial_s", [c.record.seconds for c in untraced])
    out.quality([c.record for c in cycles[:REPLAY_MIN_CYCLES]])
    if run.tracer is not None:
        out.overhead = tracing_overhead(units)
        _replay_layers(out, run, units)
    return out


def _replay_layers(out: Outcome, run: Run, units: list[Unit]) -> None:
    self_times = run.tracer.self_times()
    traced: list[Cycle] = [u.data for u in units if u.traced]
    cycles: list[Cycle] = [u.data for u in units]
    layer = out.layers
    layer["cli.record_trial_s"] = out.metrics["record_trial_s"]
    requests = [request for request, _, _, _ in traced[0].record.probe.log]
    layer["gateway.digest_us"] = (layers.per_call_us(lambda request: request.digest(), requests), "us")
    layer["gateway.cache_hit_ratio"] = (mean(1 - c.replay.inner.calls / c.replay.probe.calls for c in traced), "ratio")
    layer["gateway.inner_calls"] = (mean(c.replay.inner.calls for c in traced), "count")
    layer["gateway.record_hit_ratio"] = (mean(1 - c.record.inner.calls / c.record.probe.calls for c in traced), "ratio")
    layer["gateway.record_inner_calls"] = (mean(c.record.inner.calls for c in traced), "count")
    layer["gateway.cache_entries"] = (mean(c.cache_entries for c in traced), "count")
    layer["gateway.cache_bytes"] = (mean(c.cache_bytes for c in traced), "bytes")
    layer["gateway.cache_save_s"] = (median(c.save_s for c in cycles), "s")
    layer["gateway.cache_load_s"] = (median(s for c in cycles for s in c.replay_setup.cache_s), "s")
    layer["gateway.cache_share"] = (
        median(layers.busy_seconds(c.replay.probe.log) / c.replay.seconds for c in traced),
        "ratio",
    )
    layer["optimizer.replay_harness_share"] = (
        median(harness_seconds(self_times, c.replay) / c.replay.seconds for c in traced),
        "ratio",
    )
    layer["optimizer.harness_us_per_call"] = (
        median(harness_seconds(self_times, c.replay) / c.replay.probe.calls * 1e6 for c in traced),
        "us",
    )
    layer["optimizer.record_candidates_distinct_ratio"] = (
        mean(layers.candidates_distinct_ratio(c.record.probe.log) for c in traced),
        "ratio",
    )
    sizes = [size for c in traced for size in layers.refine_prompt_bytes(c.record.probe.log)]
    layer["templates.refine_prompt_bytes_p50"] = (layers.percentile(sizes, 50), "bytes")
    layer["templates.refine_prompt_bytes_max"] = (float(max(sizes)), "bytes")


# ---------------------------------------------------------------------------
# variance_grid


def _cell_spans(tracer: Tracer | None):
    """One span per grid cell: the lab's public ``simulate_ema`` wrapped for
    the duration of the block."""
    if tracer is None:
        return nullcontext()
    return patched(variance_lab, "simulate_ema", spanned(tracer, "simulate_ema", variance_lab.simulate_ema))


@dataclass
class Grid:
    output: bytes
    flagged: int
    cells: int
    setup_s: list[float]
    write_s: float


def variance_grid(run: Run) -> Outcome:
    out = Outcome()
    alphas, horizons, sigma, trials = VARIANCE_GRID
    out_dir = run.work / "variance"

    def unit(index: int, tracer: Tracer | None):
        if tracer is not None:
            tracer.trial = f"variance_grid/{index}"
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            with span(tracer, "setup"):
                stream = substream(run.seed, STREAM_VARIANCE)
                out_dir.mkdir(parents=True, exist_ok=True)
            setup_s.append(perf_counter() - start)
        start = perf_counter()
        with span(tracer, "variance_report"), _cell_spans(tracer):
            cells = variance_lab.variance_report(alphas, horizons, sigma, trials, stream)
        written = perf_counter()
        with span(tracer, "write_report"):
            table, summary = variance_lab.write_report(cells, out_dir)
        end = perf_counter()
        grid = Grid(
            table.read_bytes() + summary.read_bytes(),
            sum(1 for cell in cells if cell.flagged),
            len(cells),
            setup_s,
            end - written,
        )
        return end - start, grid

    units = closed_loop(run, VARIANCE_MIN_GRIDS, unit)
    grids: list[Grid] = [u.data for u in units]
    # A grid either completes or stops the run with its exception.
    out.attempted = len(grids)
    out.metrics["trial_success_ratio"] = (1.0, "ratio")
    out.metrics["trial_fail_ratio"] = (0.0, "ratio")
    for grid in grids:
        out.check(grid.flagged == 0, f"variance_grid: {grid.flagged} flagged cells")
        out.check(grid.output == grids[0].output, "variance_grid: a seeded repeat changed the report")
    untraced = [u for u in units if not u.traced]
    out.fastest("setup_s", [s for u in untraced for s in u.data.setup_s])
    out.timing("trial_s", [u.seconds for u in untraced])
    out.timing("variance_s", [u.seconds for u in untraced])
    # The lab's own accuracy test: the share of cells whose Monte Carlo
    # estimate agrees with the closed form.
    out.metrics["test_accuracy"] = (1.0 - grids[0].flagged / grids[0].cells, "ratio")
    if run.tracer is not None:
        out.overhead = tracing_overhead(units)
        _variance_layers(out, run, units)
    return out


def _variance_layers(out: Outcome, run: Run, units: list[Unit]) -> None:
    tracer = run.tracer
    alphas, horizons, sigma, trials = VARIANCE_GRID
    traced = [u for u in units if u.traced]
    layer = out.layers
    layer["variance.grid_s"] = out.metrics["variance_s"]
    cell_s = tracer.durations("simulate_ema")
    layer["variance.simulate_ema_ms"] = (median(cell_s) * 1e3, "ms")
    draws = trials * sum(h + 1 for h in horizons) * len(alphas)
    layer["variance.mc_samples_per_s"] = (draws * len(traced) / sum(cell_s), "1/s")
    models = [variance_lab.EmaModel(mu=0.0, sigma=sigma, alpha=a, horizon=max(horizons)) for a in alphas]
    layer["variance.theory_us"] = (layers.per_call_us(variance_lab.ema_mse_theory, models), "us")
    layer["variance.recursive_us"] = (layers.per_call_us(variance_lab.ema_mse_recursive, models), "us")
    layer["variance.write_report_s"] = (median(u.data.write_s for u in units), "s")
    layer["variance.cells"] = (float(units[0].data.cells), "count")


WORKLOADS: dict[str, Callable[[Run], Outcome]] = {
    "live_momentum": live_momentum,
    "live_concat": live_concat,
    "replay_concat": replay_concat,
    "variance_grid": variance_grid,
}
# The workloads that the per-layer metrics are measured on; a traced run of any
# workload runs each of them.
LAYER_WORKLOADS = ("live_momentum", "replay_concat", "variance_grid")
