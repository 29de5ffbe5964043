"""Config-driven command line: single runs, grid sweeps, and the variance lab.

The config schema is the dataclasses of :mod:`tsgdm.config`. Each ``run``
and ``sweep`` flag overrides one config field and takes its type and
choices from that field. Reports carry no timestamps, so a seeded run
writes byte-identical files every time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, get_args, get_origin

# The config classes and parsers are re-exported: callers import them from here.
from .config import (  # noqa: F401
    BackendSettings,
    ExperimentConfig,
    SweepAxis,
    SweepSettings,
    TaskSettings,
    axis_run,
    choices_of,
    field_type,
    load_document,
    parse_config,
    parse_config_data,
)
from .errors import ConfigError, ProtocolError, TsgdmError
from .gateway import (
    Backend,
    CachingBackend,
    CallPool,
    RemoteBackend,
    ReplayCache,
    ScriptedBackend,
    ScriptRule,
    waits_on_io,
)
from .optimizer import run_tsgd
from .rng import STREAM_VARIANCE, substream
from .task import TaskBinding, get_preset, load_dataset, score_prompt, synthetic_binding
from .variance import variance_report, write_report

# ---------------------------------------------------------------------------
# binding configs to objects


def build_task(settings: TaskSettings) -> TaskBinding:
    if settings.name == "synthetic" and not settings.train_path:
        return synthetic_binding(
            n_train=settings.synthetic_train,
            n_holdout=settings.synthetic_holdout,
            n_test=settings.synthetic_test,
            seed=settings.synthetic_seed,
        )
    labels = settings.labels
    initial_prompt = settings.initial_prompt
    exact_match = settings.exact_match
    if settings.name not in ("synthetic", "custom"):
        try:
            preset = get_preset(settings.name)
        except KeyError as exc:
            raise ConfigError(f"task.name: {exc}") from exc
        labels = labels or preset.labels
        initial_prompt = initial_prompt or preset.initial_prompt
        exact_match = exact_match or preset.exact_match
    if not (settings.train_path and settings.holdout_path and settings.test_path):
        raise ConfigError(
            f"task: preset {settings.name!r} needs train_path, holdout_path and test_path "
            "(corpora are not bundled)"
        )
    if initial_prompt is None:
        raise ConfigError("task.initial_prompt: required for custom tasks")
    try:
        return TaskBinding(
            name=settings.name,
            label_set=tuple(labels),
            train=tuple(load_dataset(settings.train_path, labels)),
            holdout=tuple(load_dataset(settings.holdout_path, labels)),
            test=tuple(load_dataset(settings.test_path, labels)),
            initial_prompt=initial_prompt,
            exact_match=exact_match,
        )
    except TsgdmError as exc:
        raise ConfigError(f"task: {exc}") from exc


# The script of ``kind: scripted``, a demo for the synthetic task: forward
# passes echo the marker word, refinement and analysis requests get canned
# instruction text. Another script is a ScriptedBackend built in Python.
_DEMO_INSTRUCTION = "Name the marker word at the end of the item description: blue or red."
DEFAULT_SCRIPTED_RULES = (
    ScriptRule("carries marker blue", " blue"),
    ScriptRule("carries marker red", " red"),
    ScriptRule("Improved instruction:", _DEMO_INSTRUCTION),
    ScriptRule("Error analysis:", "The instruction does not say to copy the marker word, so answers drift."),
    ScriptRule("Improved version:", _DEMO_INSTRUCTION),
)
DEFAULT_SCRIPTED_RESPONSE = " blue"


def build_backend(settings: BackendSettings, cache: ReplayCache | None) -> Backend:
    if settings.kind == "scripted":
        inner: Backend = ScriptedBackend(rules=DEFAULT_SCRIPTED_RULES, default_response=DEFAULT_SCRIPTED_RESPONSE)
    else:
        inner = RemoteBackend(settings)
    if cache is None:
        return inner
    return CachingBackend(cache, inner)


def _describe(backend: Mapping[str, Any]) -> str:
    return ", ".join(f"{name}={value!r}" for name, value in sorted(backend.items()))


def build_cache(settings: BackendSettings) -> ReplayCache | None:
    """The cache of ``settings.cache_mode``. It holds the backend identity,
    which a recorded file must match: a digest does not cover the model."""
    if settings.cache_mode == "off":
        return None
    replay, path = settings.cache_mode == "replay", settings.cache_path
    identity = {name: getattr(settings, name) for name in ("kind", "base_url", "model", "chat")}
    exists = Path(path).exists()
    if not (replay or exists):
        # Refused before any call: the recording is saved only after the last trial.
        if not Path(path).parent.is_dir():
            raise ConfigError(f"backend.cache_path: record needs an existing directory, got {path!r}")
        return ReplayCache(backend=identity)
    if not exists:
        raise ConfigError(f"backend.cache_path: replay needs an existing file, got {path!r}")
    try:
        cache = ReplayCache.load(path, replay=replay)
    except ProtocolError as exc:
        raise ConfigError(f"backend.cache_path: {exc}") from exc
    if cache.backend != identity:
        recorded = "no backend header" if cache.backend is None else f"backend {_describe(cache.backend)}"
        raise ConfigError(
            f"backend.cache_path: {path} has {recorded}, but the config's backend is {_describe(identity)}"
        )
    return cache


# ---------------------------------------------------------------------------
# experiment execution


def _make_output_dir(path: str) -> Path:
    """The directory ``path``, made if missing; one that cannot be made,
    such as an existing file, is a :class:`ConfigError`."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: {exc}") from exc
    return Path(path)


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _run_one_trial(
    config: ExperimentConfig, task: TaskBinding, cache: ReplayCache | None, trial: int
) -> dict:
    seed = config.seed_base + trial
    run_cfg = dataclasses.replace(config.run, seed=seed)
    backend = build_backend(config.backend, cache)
    max_inflight = config.backend.max_inflight if waits_on_io(backend) else 1
    result = None
    try:
        # One pool, and so one set of threads, serves the whole trial.
        with CallPool(max_inflight) as pool:
            result = run_tsgd(run_cfg, task, backend, max_lm_calls=config.max_gateway_calls, pool=pool)
            final_test = score_prompt(task, result.best_prompt, task.test, backend, tag="test", pool=pool)
        return {
            "trial": trial, "seed": seed, "status": "complete", "final_test_accuracy": final_test, **result.to_dict()
        }
    except TsgdmError as exc:
        # A failed test pass keeps the finished run's rows.
        partial = getattr(exc, "partial_run_log", ()) if result is None else result.per_iteration
        return {
            "trial": trial,
            "seed": seed,
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "per_iteration": [row.to_dict() for row in partial],
        }


def run_experiment(config: ExperimentConfig, echo=print) -> dict:
    """Execute config.trials seeded runs and write per-trial files, the
    per-iteration log, and the aggregate summary into config.output_dir.

    Up to ``config.parallel_trials`` trials run at once on one
    :class:`CallPool`, and each trial's file is written as the trial ends.
    An error outside the package's own types stops further trials from
    starting; the files of the trials that ended stay, and a record cache
    is saved even then."""
    task = build_task(config.task)
    cache = build_cache(config.backend)
    out = _make_output_dir(config.output_dir)  # after the checks, so a refused run leaves none

    def trial(i: int) -> dict:
        trial_data = _run_one_trial(config, task, cache, i)
        _dump_json(out / f"trial_{i:03d}.json", trial_data)
        return trial_data

    try:
        with CallPool(config.parallel_trials) as pool:
            trials = pool.map(trial, range(config.trials))
    finally:
        if cache is not None and not cache.replay:
            cache.save(config.backend.cache_path)

    log_lines = []
    for trial_data in trials:
        for row in trial_data["per_iteration"]:
            log_lines.append(
                json.dumps(
                    {
                        "trial": trial_data["trial"],
                        "iteration": row["iteration"],
                        "holdout_score": row["holdout_score"],
                        "selected_candidate_index": row["selected_candidate_index"],
                        "gateway_calls": row["gateway_calls"],
                        "completion_tokens": row["completion_tokens"],
                    },
                    sort_keys=True,
                    ensure_ascii=False,
                )
            )
    (out / "run_log.jsonl").write_text(
        "".join(line + "\n" for line in log_lines), encoding="utf-8"
    )

    completed = [t for t in trials if t["status"] == "complete"]
    finals = [t["final_test_accuracy"] for t in completed]
    summary = {
        "task": task.name,
        "trials": config.trials,
        "completed": len(completed),
        "failed": config.trials - len(completed),
        "mean_final_test_accuracy": statistics.fmean(finals) if finals else None,
        "std_final_test_accuracy": statistics.pstdev(finals) if finals else None,
        "per_trial_final_test_accuracy": finals,
        "output_dir": str(out),
    }
    if summary["failed"]:
        summary["warning"] = f"{summary['failed']} of {config.trials} trials failed; summary covers completed trials only"
    _dump_json(out / "summary.json", summary)

    for trial_data in trials:
        if trial_data["status"] == "complete":
            echo(
                f"trial {trial_data['trial']}: {trial_data['stop_reason']}, "
                f"best holdout {trial_data['best_holdout_score']:.4f}, "
                f"test {trial_data['final_test_accuracy']:.4f}"
            )
        else:
            echo(f"trial {trial_data['trial']}: FAILED ({trial_data['error']})")
    return summary


def _format_axis_value(axis: SweepAxis, value: float) -> str:
    if axis in (SweepAxis.BATCH_SIZE, SweepAxis.TRAIN_SIZE):
        return str(int(value))
    return repr(float(value))


def run_sweep(config: ExperimentConfig, echo=print) -> list[dict]:
    """One run_experiment per axis value, everything else shared; emits
    sweep.csv ordered by axis value."""
    if config.sweep is None:
        raise ConfigError("sweep: section required for the sweep command")
    axis = config.sweep.axis
    # Every point runs this task and cache; a run refuses them before it
    # makes its directory, and so does the sweep.
    task = build_task(config.task)
    build_cache(config.backend)
    if axis is SweepAxis.TRAIN_SIZE:
        # A run clips train_size to the train split, so larger values would
        # all run the same trial.
        split = len(task.train)
        for i, value in enumerate(config.sweep.values):
            if value > split:
                raise ConfigError(
                    f"sweep.values[{i}]: train_size {int(value)} exceeds the {split} examples of the train split"
                )
    out = _make_output_dir(config.output_dir)  # after the checks, before the first point
    rows = []
    for value in sorted(config.sweep.values):
        label = _format_axis_value(axis, value)
        sub = dataclasses.replace(
            config, run=axis_run(config.run, axis, value), sweep=None, output_dir=str(out / f"{axis.value}={label}")
        )
        echo(f"sweep {axis.value}={label}")
        summary = run_experiment(sub, echo=echo)
        rows.append(
            {
                "axis": axis.value,
                "value": value,
                "mean_final_test_accuracy": summary["mean_final_test_accuracy"],
                "std_final_test_accuracy": summary["std_final_test_accuracy"],
                "completed": summary["completed"],
                "trials": summary["trials"],
            }
        )
    lines = ["axis_value,mean_final_test_accuracy,std_final_test_accuracy"]
    for row in rows:
        mean = row["mean_final_test_accuracy"]
        std = row["std_final_test_accuracy"]
        lines.append(
            f"{_format_axis_value(axis, row['value'])},"
            f"{'' if mean is None else repr(mean)},{'' if std is None else repr(std)}"
        )
    (out / "sweep.csv").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    _dump_json(out / "sweep_summary.json", {"axis": axis.value, "rows": rows})
    return rows


# ---------------------------------------------------------------------------
# argument plumbing


def _load_config_document(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    return load_document(text)


def _set_path(data: dict, dotted: str, value: Any) -> None:
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config: cannot override {dotted} (non-mapping in the way)")
    node[keys[-1]] = value


def _split(text: str, path: str, item: Callable[[str], Any]) -> list:
    """The comma-separated items of ``text``, each converted by ``item``."""
    try:
        return [item(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# (flag dest, dotted config path). The flag is --dest with dashes; its type
# and choices are its field's.
_RUN_FLAGS = (
    ("task", "task.name"),
    ("train_path", "task.train_path"),
    ("holdout_path", "task.holdout_path"),
    ("test_path", "task.test_path"),
    ("initial_prompt", "task.initial_prompt"),
    ("labels", "task.labels"),
    ("backend", "backend.kind"),
    ("base_url", "backend.base_url"),
    ("model", "backend.model"),
    ("api_key_env", "backend.api_key_env"),
    ("cache_mode", "backend.cache_mode"),
    ("cache_path", "backend.cache_path"),
    ("max_inflight", "backend.max_inflight"),
    ("iterations", "run.total_iterations"),
    ("batch_size", "run.batch_size"),
    ("train_size", "run.train_size"),
    ("patience", "run.patience"),
    ("preset", "run.hypothesis_preset"),
    ("alpha", "run.generation.alpha"),
    ("temperature", "run.generation.temperature"),
    ("block_tokens", "run.generation.block_tokens"),
    ("max_total_tokens", "run.generation.max_total_tokens"),
    ("candidates", "run.generation.candidates"),
    ("mode", "run.generation.mode"),
    ("no_momentum", "run.use_momentum"),
    ("with_replacement", "run.sample_with_replacement"),
    ("trials", "trials"),
    ("seed_base", "seed_base"),
    ("output_dir", "output_dir"),
    ("max_gateway_calls", "max_gateway_calls"),
    ("parallel_trials", "parallel_trials"),
)
_SWEEP_FLAGS = (("axis", "sweep.axis"), ("values", "sweep.values"))
_FLAG_HELP = {
    "task": "task preset name, 'synthetic', or 'custom'",
    "labels": "comma-separated label set for custom tasks",
    "max_inflight": f"gateway calls in flight per trial (default {BackendSettings.max_inflight}; 1 is sequential)",
    "max_gateway_calls": (
        "gateway calls each trial's optimizer may make; the final test pass is not counted, and reaching "
        "the budget fails the trial with BudgetExceededError and keeps its rows"
    ),
    "no_momentum": "use the vanilla update",
    "values": "comma-separated axis values",
}


def _flag(dotted: str) -> tuple[dict, Callable[[Any], Any]]:
    """argparse keywords for the flag of field ``dotted``, and the function
    from the flag's parsed argument to the field's document value."""
    hint, default = field_type(dotted)
    if hint is bool:
        # A switch sets the value other than the default.
        return {"action": "store_true", "default": None}, lambda _: not default
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return {}, lambda text: _split(text, dotted, item)
    if choices_of(hint):
        return {"choices": list(choices_of(hint))}, lambda value: value
    return ({"type": hint} if hint in (int, float) else {}), lambda value: value


# flag dest: (dotted config path, argparse keywords, document value of an argument)
_FLAGS = {dest: (dotted, *_flag(dotted)) for dest, dotted in _RUN_FLAGS + _SWEEP_FLAGS}


def _add_flags(parser: argparse.ArgumentParser, flags: Sequence[tuple[str, str]]) -> None:
    for dest, _ in flags:
        parser.add_argument("--" + dest.replace("_", "-"), dest=dest, help=_FLAG_HELP.get(dest), **_FLAGS[dest][1])


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data = _load_config_document(args.config)
    for dest, (dotted, _, to_value) in _FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None:
            _set_path(data, dotted, to_value(value))
    return parse_config_data(data)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsgdm",
        description="Momentum-based textual prompt optimization and its variance lab.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="execute seeded optimization trials")
    sweep_parser = commands.add_parser("sweep", help="run a grid sweep over one axis")
    for sub in (run_parser, sweep_parser):
        sub.add_argument("--config", help="YAML or JSON config file")
        _add_flags(sub, _RUN_FLAGS)
    _add_flags(sweep_parser, _SWEEP_FLAGS)

    var_parser = commands.add_parser("variance", help="closed form vs Monte Carlo error grid")
    var_parser.add_argument("--alphas", default="0.1,0.3,0.5,0.7,0.9")
    var_parser.add_argument("--horizons", default="1,2,5,10,20,50")
    var_parser.add_argument("--sigma", type=float, default=1.0)
    var_parser.add_argument("--trials", type=int, default=100_000)
    var_parser.add_argument("--seed", type=int, default=0)
    var_parser.add_argument("--output-dir", dest="output_dir", default="runs/variance")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _config_from_args(args)
            summary = run_experiment(config)
            print(
                f"summary: {summary['completed']}/{summary['trials']} trials complete, "
                f"mean test accuracy {summary['mean_final_test_accuracy']}"
            )
            return 0 if summary["failed"] == 0 else 1
        if args.command == "sweep":
            config = _config_from_args(args)
            rows = run_sweep(config)
            incomplete = sum(1 for row in rows if row["completed"] != row["trials"])
            return 0 if incomplete == 0 else 1
        alphas = _split(args.alphas, "alphas", float)
        horizons = _split(args.horizons, "horizons", int)
        cells = variance_report(alphas, horizons, args.sigma, args.trials, substream(args.seed, STREAM_VARIANCE))
        table_path, summary_path = write_report(cells, _make_output_dir(args.output_dir))
        flagged = sum(1 for cell in cells if cell.flagged)
        print(f"{len(cells)} cells, {flagged} flagged; wrote {table_path} and {summary_path}")
        return 0 if flagged == 0 else 1
    except TsgdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
