"""Config-driven command line: single runs, grid sweeps, and the variance lab.

Configs are YAML or JSON documents; every field has a default, so an empty
config runs the bundled synthetic task against the scripted backend. Flags
override config fields. Reports carry no timestamps, so a seeded run writes
byte-identical files every time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from .errors import ConfigError, DomainError, TsgdmError, UnknownFieldError
from .gateway import (
    Backend,
    CacheMode,
    CachingBackend,
    CallPool,
    FinishReason,
    RemoteBackend,
    RemoteConfig,
    ReplayCache,
    ScriptRule,
    ScriptedBackend,
    waits_on_io,
)
from .optimizer import GenerationParams, RunConfig, run_tsgd
from .rng import STREAM_VARIANCE, substream
from .task import TaskBinding, get_preset, load_dataset, score_prompt, synthetic_binding
from .variance import variance_report, write_report

# Demo script for the synthetic task: forward passes echo the marker word,
# refinement and analysis requests get canned instruction text.
DEFAULT_SCRIPTED_RULES = (
    ScriptRule("carries marker blue", " blue"),
    ScriptRule("carries marker red", " red"),
    ScriptRule(
        "Improved instruction:",
        "Name the marker word at the end of the item description: blue or red.",
    ),
    ScriptRule(
        "Error analysis:",
        "The instruction does not say to copy the marker word, so answers drift.",
    ),
    ScriptRule(
        "Improved version:",
        "Name the marker word at the end of the item description: blue or red.",
    ),
)
DEFAULT_SCRIPTED_RESPONSE = " blue"


@dataclass
class TaskSettings:
    """Which task to bind: a bundled preset plus dataset files, the synthetic
    toy task, or fully custom fields."""

    name: str = "synthetic"
    train_path: str | None = None
    holdout_path: str | None = None
    test_path: str | None = None
    labels: tuple[str, ...] = ()
    initial_prompt: str | None = None
    exact_match: bool = False
    synthetic_train: int = 40
    synthetic_holdout: int = 16
    synthetic_test: int = 16
    synthetic_seed: int = 0


@dataclass
class BackendSettings:
    """Backend selection plus optional record/replay cache.

    ``max_inflight`` is how many gateway calls one trial keeps in flight,
    on the one :class:`CallPool` that serves its optimizer and its test
    pass. Results do not depend on it, and 1 is the sequential call order.
    The default, 24, made the momentum benchmark workload about a fifth
    faster than 16 at simulated remote latency and left the concat one
    unchanged; ``parallel_trials`` multiplies it. A trial whose backend
    never waits on I/O runs sequentially whatever ``max_inflight`` says,
    since threads would only contend for the interpreter: the scripted
    backend and a replay cache declare so, while a record or passthrough
    cache waits as its inner backend does, and any other backend keeps
    ``max_inflight``.
    """

    kind: str = "scripted"
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"
    api_key_env: str = "OPENAI_API_KEY"
    timeout_s: float = 60.0
    chat: bool = True
    max_attempts: int = 4
    max_inflight: int = 24
    cache_mode: str = "off"
    cache_path: str | None = None
    scripted_rules: tuple[ScriptRule, ...] = DEFAULT_SCRIPTED_RULES
    scripted_default_response: str = DEFAULT_SCRIPTED_RESPONSE


class SweepAxis(str, Enum):
    BATCH_SIZE = "batch_size"
    TRAIN_SIZE = "train_size"
    ALPHA = "alpha"
    TEMPERATURE = "temperature"


@dataclass
class SweepSettings:
    axis: SweepAxis
    values: tuple[float, ...]


@dataclass
class ExperimentConfig:
    run: RunConfig = field(default_factory=RunConfig)
    task: TaskSettings = field(default_factory=TaskSettings)
    backend: BackendSettings = field(default_factory=BackendSettings)
    trials: int = 1
    seed_base: int = 0
    sweep: SweepSettings | None = None
    output_dir: str = "runs"
    max_gateway_calls: int | None = None
    parallel_trials: int = 1


# ---------------------------------------------------------------------------
# config parsing


def _strict(section: Any, allowed: Sequence[str], path: str) -> dict:
    if section is None:
        return {}
    if not isinstance(section, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {type(section).__name__}")
    for key in section:
        if key not in allowed:
            raise UnknownFieldError(f"{path}.{key}: unknown field")
    return dict(section)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value

def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


_GENERATION_FIELDS = (
    "alpha",
    "max_total_tokens",
    "block_tokens",
    "temperature",
    "candidates",
    "mode",
    "refine_template",
    "analyze_template",
)
_RUN_FIELDS = (
    "total_iterations",
    "batch_size",
    "train_size",
    "patience",
    "hypothesis_preset",
    "seed",
    "generation",
    "use_momentum",
    "sample_with_replacement",
)
_TASK_FIELDS = (
    "name",
    "train_path",
    "holdout_path",
    "test_path",
    "labels",
    "initial_prompt",
    "exact_match",
    "synthetic_train",
    "synthetic_holdout",
    "synthetic_test",
    "synthetic_seed",
)
_BACKEND_FIELDS = (
    "kind",
    "base_url",
    "model",
    "api_key_env",
    "timeout_s",
    "chat",
    "max_attempts",
    "max_inflight",
    "cache_mode",
    "cache_path",
    "scripted_rules",
    "scripted_default_response",
)
_TOP_FIELDS = (
    "run",
    "task",
    "backend",
    "trials",
    "seed_base",
    "sweep",
    "output_dir",
    "max_gateway_calls",
    "parallel_trials",
)


def _parse_generation(section: Any) -> GenerationParams:
    data = _strict(section, _GENERATION_FIELDS, "run.generation")
    kwargs: dict[str, Any] = {}
    for key in ("alpha", "temperature"):
        if key in data:
            kwargs[key] = _as_float(data[key], f"run.generation.{key}")
    for key in ("max_total_tokens", "block_tokens", "candidates"):
        if key in data:
            kwargs[key] = _as_int(data[key], f"run.generation.{key}")
    for key in ("mode", "refine_template", "analyze_template"):
        if key in data and data[key] is not None:
            kwargs[key] = _as_str(data[key], f"run.generation.{key}")
    try:
        return GenerationParams(**kwargs)
    except (DomainError, ValueError) as exc:
        raise ConfigError(f"run.generation: {exc}") from exc


def _parse_run(section: Any) -> RunConfig:
    data = _strict(section, _RUN_FIELDS, "run")
    kwargs: dict[str, Any] = {}
    for key in ("total_iterations", "batch_size", "train_size", "patience", "seed"):
        if key in data:
            kwargs[key] = _as_int(data[key], f"run.{key}")
    if "hypothesis_preset" in data:
        kwargs["hypothesis_preset"] = _as_str(data["hypothesis_preset"], "run.hypothesis_preset")
    for key in ("use_momentum", "sample_with_replacement"):
        if key in data:
            kwargs[key] = _as_bool(data[key], f"run.{key}")
    kwargs["generation"] = _parse_generation(data.get("generation"))
    try:
        run = RunConfig(**kwargs)
    except (DomainError, ValueError) as exc:
        raise ConfigError(f"run: {exc}") from exc
    # A preset forces its patience and temperature; refuse an explicit other
    # value rather than let the preset overwrite it.
    temperature = (data.get("generation") or {}).get("temperature")
    for path, value, used in (
        ("run.patience", kwargs.get("patience"), run.patience),
        ("run.generation.temperature", temperature, run.generation.temperature),
    ):
        if value is not None and value != used:
            raise ConfigError(
                f"{path}: preset {run.hypothesis_preset.value} sets {used}, got {value}; "
                "choose it under run.hypothesis_preset: custom"
            )
    return run


def _parse_task(section: Any) -> TaskSettings:
    data = _strict(section, _TASK_FIELDS, "task")
    kwargs: dict[str, Any] = {}
    if "name" in data:
        kwargs["name"] = _as_str(data["name"], "task.name")
    for key in ("train_path", "holdout_path", "test_path", "initial_prompt"):
        if key in data and data[key] is not None:
            kwargs[key] = _as_str(data[key], f"task.{key}")
    if "labels" in data:
        labels = data["labels"]
        if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
            raise ConfigError("task.labels: expected a list of strings")
        kwargs["labels"] = tuple(labels)
    if "exact_match" in data:
        kwargs["exact_match"] = _as_bool(data["exact_match"], "task.exact_match")
    for key in ("synthetic_train", "synthetic_holdout", "synthetic_test", "synthetic_seed"):
        if key in data:
            kwargs[key] = _as_int(data[key], f"task.{key}")
    return TaskSettings(**kwargs)


def _parse_scripted_rules(value: Any) -> tuple[ScriptRule, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError("backend.scripted_rules: expected a list of rule mappings")
    rules = []
    for i, raw in enumerate(value):
        data = _strict(raw, ("pattern", "response", "exact", "finish_reason"), f"backend.scripted_rules[{i}]")
        if "pattern" not in data or "response" not in data:
            raise ConfigError(f"backend.scripted_rules[{i}]: needs pattern and response")
        try:
            rules.append(
                ScriptRule(
                    pattern=_as_str(data["pattern"], f"backend.scripted_rules[{i}].pattern"),
                    response=_as_str(data["response"], f"backend.scripted_rules[{i}].response"),
                    exact=_as_bool(data.get("exact", False), f"backend.scripted_rules[{i}].exact"),
                    finish_reason=FinishReason(data.get("finish_reason", "stop")),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"backend.scripted_rules[{i}]: {exc}") from exc
    return tuple(rules)


def _parse_backend(section: Any) -> BackendSettings:
    data = _strict(section, _BACKEND_FIELDS, "backend")
    kwargs: dict[str, Any] = {}
    for key in ("kind", "base_url", "model", "api_key_env", "cache_mode", "scripted_default_response"):
        if key in data:
            kwargs[key] = _as_str(data[key], f"backend.{key}")
    if "cache_path" in data and data["cache_path"] is not None:
        kwargs["cache_path"] = _as_str(data["cache_path"], "backend.cache_path")
    if "timeout_s" in data:
        kwargs["timeout_s"] = _as_float(data["timeout_s"], "backend.timeout_s")
    if "chat" in data:
        kwargs["chat"] = _as_bool(data["chat"], "backend.chat")
    for key in ("max_attempts", "max_inflight"):
        if key in data:
            kwargs[key] = _as_int(data[key], f"backend.{key}")
    if "scripted_rules" in data:
        kwargs["scripted_rules"] = _parse_scripted_rules(data["scripted_rules"])
    settings = BackendSettings(**kwargs)
    if settings.kind not in ("scripted", "openai"):
        raise ConfigError(f"backend.kind: expected 'scripted' or 'openai', got {settings.kind!r}")
    if settings.cache_mode not in ("off", "record", "replay", "passthrough"):
        raise ConfigError(
            f"backend.cache_mode: expected off/record/replay/passthrough, got {settings.cache_mode!r}"
        )
    if settings.cache_mode in ("record", "replay") and not settings.cache_path:
        raise ConfigError(f"backend.cache_path: required for cache_mode {settings.cache_mode!r}")
    if settings.max_inflight < 1:
        raise ConfigError(f"backend.max_inflight: must be >= 1, got {settings.max_inflight}")
    return settings


def _parse_sweep(section: Any, run: RunConfig) -> SweepSettings | None:
    if section is None:
        return None
    data = _strict(section, ("axis", "values"), "sweep")
    if "axis" not in data or "values" not in data:
        raise ConfigError("sweep: needs axis and values")
    try:
        axis = SweepAxis(_as_str(data["axis"], "sweep.axis"))
    except ValueError as exc:
        raise ConfigError(f"sweep.axis: {exc}") from exc
    values = data["values"]
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError("sweep.values: expected a nonempty list")
    parsed: list[float] = []
    for i, value in enumerate(values):
        parsed.append(_as_float(value, f"sweep.values[{i}]"))
    mode = run.generation.mode.value
    if axis in (SweepAxis.BATCH_SIZE, SweepAxis.TRAIN_SIZE):
        for i, value in enumerate(parsed):
            if value != int(value):
                raise ConfigError(f"sweep.values[{i}]: {axis.value} values must be integers")
        if mode != "case2_gradient":
            raise ConfigError(
                f"sweep.axis: {axis.value} sweeps need run.generation.mode: case2_gradient "
                "(only it draws a train batch)"
            )
    if axis is SweepAxis.ALPHA and (mode == "concat_baseline" or not run.use_momentum):
        raise ConfigError(
            "sweep.axis: alpha sweeps need run.use_momentum: true and a mode other than "
            "concat_baseline (only the momentum update reads alpha)"
        )
    if axis is SweepAxis.TEMPERATURE and run.hypothesis_preset.value != "custom":
        raise ConfigError(
            "sweep.axis: temperature sweeps need run.hypothesis_preset: custom "
            "(presets force the temperature)"
        )
    return SweepSettings(axis=axis, values=tuple(parsed))


def parse_config_data(data: Any) -> ExperimentConfig:
    """Validate a parsed config mapping; every field optional, strict on
    unknown fields."""
    top = _strict(data, _TOP_FIELDS, "config")
    run = _parse_run(top.get("run"))
    config = ExperimentConfig(
        run=run,
        task=_parse_task(top.get("task")),
        backend=_parse_backend(top.get("backend")),
        sweep=_parse_sweep(top.get("sweep"), run),
    )
    if "trials" in top:
        config.trials = _as_int(top["trials"], "trials")
    if "seed_base" in top:
        config.seed_base = _as_int(top["seed_base"], "seed_base")
    if "output_dir" in top:
        config.output_dir = _as_str(top["output_dir"], "output_dir")
    if "max_gateway_calls" in top and top["max_gateway_calls"] is not None:
        config.max_gateway_calls = _as_int(top["max_gateway_calls"], "max_gateway_calls")
    if "parallel_trials" in top:
        config.parallel_trials = _as_int(top["parallel_trials"], "parallel_trials")
    if config.trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {config.trials}")
    if config.parallel_trials < 1:
        raise ConfigError(f"parallel_trials: must be >= 1, got {config.parallel_trials}")
    if config.max_gateway_calls is not None and config.max_gateway_calls < 0:
        raise ConfigError(f"max_gateway_calls: must be >= 0, got {config.max_gateway_calls}")
    return config


def parse_config(text: str) -> ExperimentConfig:
    """Parse a YAML or JSON config document."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: not valid YAML/JSON: {exc}") from exc
    return parse_config_data(data)


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


def build_backend(settings: BackendSettings, cache: ReplayCache | None) -> Backend:
    if settings.kind == "scripted":
        inner: Backend = ScriptedBackend(
            rules=settings.scripted_rules,
            default_response=settings.scripted_default_response,
        )
    else:
        inner = RemoteBackend(
            RemoteConfig(
                base_url=settings.base_url,
                model=settings.model,
                api_key_env=settings.api_key_env,
                timeout_s=settings.timeout_s,
                chat=settings.chat,
                max_attempts=settings.max_attempts,
                max_inflight=settings.max_inflight,
            )
        )
    if cache is None:
        return inner
    return CachingBackend(cache, inner)


def build_cache(settings: BackendSettings) -> ReplayCache | None:
    if settings.cache_mode == "off":
        return None
    if settings.cache_mode == "replay":
        if not settings.cache_path or not Path(settings.cache_path).exists():
            raise ConfigError(f"backend.cache_path: replay needs an existing file, got {settings.cache_path!r}")
        return ReplayCache.load(settings.cache_path, mode=CacheMode.REPLAY)
    if settings.cache_mode == "record" and settings.cache_path and Path(settings.cache_path).exists():
        return ReplayCache.load(settings.cache_path, mode=CacheMode.RECORD)
    return ReplayCache(mode=CacheMode(settings.cache_mode))


# ---------------------------------------------------------------------------
# experiment execution


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
    try:
        # One pool, and so one set of threads, serves the whole trial.
        with CallPool(max_inflight) as pool:
            result = run_tsgd(run_cfg, task, backend, max_lm_calls=config.max_gateway_calls, pool=pool)
            final_test = score_prompt(
                result.best_prompt,
                task.test,
                backend,
                task.score_kind,
                task.label_set,
                task.forward_template,
                tag="test",
                pool=pool,
            )
        return {
            "trial": trial,
            "seed": seed,
            "status": "complete",
            "stop_reason": result.stop_reason.value,
            "best_prompt": result.best_prompt,
            "best_holdout_score": result.best_score,
            "final_test_accuracy": final_test,
            "total_lm_calls": result.total_lm_calls,
            "per_iteration": [row.to_dict() for row in result.per_iteration],
        }
    except TsgdmError as exc:
        partial = getattr(exc, "partial_run_log", ())
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

    A record cache is saved even when a trial raises."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    task = build_task(config.task)
    cache = build_cache(config.backend)

    indices = list(range(config.trials))
    try:
        if config.parallel_trials > 1:
            with ThreadPoolExecutor(max_workers=config.parallel_trials) as pool:
                trials = list(pool.map(lambda i: _run_one_trial(config, task, cache, i), indices))
        else:
            trials = [_run_one_trial(config, task, cache, i) for i in indices]
    finally:
        if cache is not None and config.backend.cache_mode == "record" and config.backend.cache_path:
            cache.save(config.backend.cache_path)

    log_lines = []
    for trial_data in trials:
        _dump_json(out / f"trial_{trial_data['trial']:03d}.json", trial_data)
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


def _apply_axis(config: ExperimentConfig, axis: SweepAxis, value: float) -> ExperimentConfig:
    run = config.run
    if axis is SweepAxis.BATCH_SIZE:
        run = dataclasses.replace(run, batch_size=int(value))
    elif axis is SweepAxis.TRAIN_SIZE:
        run = dataclasses.replace(run, train_size=int(value))
    elif axis is SweepAxis.ALPHA:
        run = dataclasses.replace(run, generation=dataclasses.replace(run.generation, alpha=value))
    else:
        run = dataclasses.replace(
            run, generation=dataclasses.replace(run.generation, temperature=value)
        )
    return dataclasses.replace(config, run=run, sweep=None)


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
    if axis is SweepAxis.TRAIN_SIZE:
        # A run clips train_size to the train split, so larger values would
        # all run the same trial.
        split = len(build_task(config.task).train)
        for i, value in enumerate(config.sweep.values):
            if value > split:
                raise ConfigError(
                    f"sweep.values[{i}]: train_size {int(value)} exceeds the {split} examples of the train split"
                )
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in sorted(config.sweep.values):
        label = _format_axis_value(axis, value)
        sub = _apply_axis(config, axis, value)
        sub = dataclasses.replace(sub, output_dir=str(out / f"{axis.value}={label}"))
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


def _load_config_document(path: str | None) -> Any:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        return yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: not valid YAML/JSON: {exc}") from exc


def _set_path(data: dict, dotted: str, value: Any) -> None:
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config: cannot override {dotted} (non-mapping in the way)")
    node[keys[-1]] = value


# (flag dest, dotted config path, converter)
_OVERRIDES = (
    ("task", "task.name", str),
    ("train_path", "task.train_path", str),
    ("holdout_path", "task.holdout_path", str),
    ("test_path", "task.test_path", str),
    ("initial_prompt", "task.initial_prompt", str),
    ("backend", "backend.kind", str),
    ("base_url", "backend.base_url", str),
    ("model", "backend.model", str),
    ("api_key_env", "backend.api_key_env", str),
    ("cache_mode", "backend.cache_mode", str),
    ("cache_path", "backend.cache_path", str),
    ("max_inflight", "backend.max_inflight", int),
    ("iterations", "run.total_iterations", int),
    ("batch_size", "run.batch_size", int),
    ("train_size", "run.train_size", int),
    ("patience", "run.patience", int),
    ("preset", "run.hypothesis_preset", str),
    ("alpha", "run.generation.alpha", float),
    ("temperature", "run.generation.temperature", float),
    ("block_tokens", "run.generation.block_tokens", int),
    ("max_total_tokens", "run.generation.max_total_tokens", int),
    ("candidates", "run.generation.candidates", int),
    ("mode", "run.generation.mode", str),
    ("trials", "trials", int),
    ("seed_base", "seed_base", int),
    ("output_dir", "output_dir", str),
    ("max_gateway_calls", "max_gateway_calls", int),
    ("parallel_trials", "parallel_trials", int),
)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML or JSON config file")
    parser.add_argument("--task", help="task preset name, 'synthetic', or 'custom'")
    parser.add_argument("--train-path", dest="train_path")
    parser.add_argument("--holdout-path", dest="holdout_path")
    parser.add_argument("--test-path", dest="test_path")
    parser.add_argument("--initial-prompt", dest="initial_prompt")
    parser.add_argument("--labels", help="comma-separated label set for custom tasks")
    parser.add_argument("--backend", choices=["scripted", "openai"])
    parser.add_argument("--base-url", dest="base_url")
    parser.add_argument("--model")
    parser.add_argument("--api-key-env", dest="api_key_env")
    parser.add_argument("--cache-mode", dest="cache_mode", choices=["off", "record", "replay", "passthrough"])
    parser.add_argument("--cache-path", dest="cache_path")
    parser.add_argument(
        "--max-inflight", dest="max_inflight", type=int,
        help=f"gateway calls in flight per trial (default {BackendSettings.max_inflight}; 1 is sequential)",
    )
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--train-size", dest="train_size", type=int)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--preset", choices=["H0", "H1", "custom"])
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--block-tokens", dest="block_tokens", type=int)
    parser.add_argument("--max-total-tokens", dest="max_total_tokens", type=int)
    parser.add_argument("--candidates", type=int)
    parser.add_argument("--mode", choices=["case1_meta_prompt", "case2_gradient", "concat_baseline"])
    parser.add_argument("--no-momentum", action="store_true", help="use the vanilla update")
    parser.add_argument("--with-replacement", action="store_true", dest="with_replacement")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed-base", dest="seed_base", type=int)
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--max-gateway-calls", dest="max_gateway_calls", type=int)
    parser.add_argument("--parallel-trials", dest="parallel_trials", type=int)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data = _load_config_document(args.config)
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a mapping")
    for dest, dotted, conv in _OVERRIDES:
        value = getattr(args, dest, None)
        if value is not None:
            _set_path(data, dotted, conv(value))
    if getattr(args, "labels", None):
        _set_path(data, "task.labels", [x for x in args.labels.split(",") if x])
    if getattr(args, "no_momentum", False):
        _set_path(data, "run.use_momentum", False)
    if getattr(args, "with_replacement", False):
        _set_path(data, "run.sample_with_replacement", True)
    if getattr(args, "axis", None) is not None or getattr(args, "values", None) is not None:
        if not (getattr(args, "axis", None) and getattr(args, "values", None)):
            raise ConfigError("sweep: --axis and --values go together")
        values = [float(x) for x in args.values.split(",") if x]
        _set_path(data, "sweep", {"axis": args.axis, "values": values})
    return parse_config_data(data)


def _parse_float_list(text: str, path: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not values:
        raise ConfigError(f"{path}: expected a nonempty comma-separated list")
    return values


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsgdm",
        description="Momentum-based textual prompt optimization and its variance lab.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="execute seeded optimization trials")
    _add_run_flags(run_parser)

    sweep_parser = commands.add_parser("sweep", help="run a grid sweep over one axis")
    _add_run_flags(sweep_parser)
    sweep_parser.add_argument("--axis", choices=[axis.value for axis in SweepAxis])
    sweep_parser.add_argument("--values", help="comma-separated axis values")

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
        alphas = _parse_float_list(args.alphas, "alphas")
        horizons = [int(h) for h in _parse_float_list(args.horizons, "horizons")]
        if args.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {args.trials}")
        cells = variance_report(
            alphas, horizons, args.sigma, args.trials, substream(args.seed, STREAM_VARIANCE)
        )
        table_path, summary_path = write_report(cells, args.output_dir)
        flagged = sum(1 for cell in cells if cell.flagged)
        print(f"{len(cells)} cells, {flagged} flagged; wrote {table_path} and {summary_path}")
        return 0 if flagged == 0 else 1
    except TsgdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
