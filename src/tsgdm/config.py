"""The experiment config. Its dataclasses are the one schema.

A config document is YAML or JSON. Every field has a default, so an empty
document runs the bundled synthetic task against the scripted backend.
:func:`parse_config_data` checks each value against its field's annotation
and names the dotted path of any value it refuses. Each class states its
own rules, for Python callers and the CLI alike: a preset fills the
patience and temperature left unset and refuses a conflict (``RunConfig``),
the backend's limits and a cache's need for a file live in
``BackendSettings``, which ``RemoteBackend`` reads as its only settings,
and the trial counts and seeds in ``ExperimentConfig``. The parser adds
only the sweep rules, which read the ``sweep`` and ``run`` sections
together.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import UnionType
from typing import Any, Callable, Literal, Union, get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError, DomainError, UnknownFieldError, check_minimums
from .optimizer import GenerationMode, GenerationParams, RunConfig

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

    ``kind: scripted`` answers from the CLI's fixed demo script.
    ``timeout_s`` bounds each HTTP attempt, in (0, 86400] seconds.

    ``max_inflight`` is how many gateway calls one trial keeps in flight,
    on the one :class:`CallPool` that serves its optimizer and its test
    pass. Results do not depend on it, and 1 is the sequential call order.
    The default, 24, made the momentum benchmark workload about a fifth
    faster than 16 at simulated remote latency and left the concat one
    unchanged; ``parallel_trials`` multiplies it. A trial whose backend
    never waits on I/O runs sequentially whatever ``max_inflight`` says,
    since threads would only contend for the interpreter: the scripted
    backend and a replay cache declare so, while a record cache waits as
    its inner backend does, and any other backend keeps ``max_inflight``.

    A record or replay file carries ``kind``, ``base_url``, ``model`` and
    ``chat`` in its header, and only loads under the same four.
    ``RemoteBackend`` reads the connection fields from these settings.
    """

    kind: Literal["scripted", "openai"] = "scripted"
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"
    api_key_env: str = "OPENAI_API_KEY"
    timeout_s: float = 60.0
    chat: bool = True
    max_attempts: int = 4
    max_inflight: int = 24
    cache_mode: Literal["off", "record", "replay"] = "off"
    cache_path: str | None = None

    def __post_init__(self) -> None:
        if not self.timeout_s > 0:
            raise DomainError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.timeout_s > 86_400:  # a day; the socket layer refuses 1e10 s, and only in the first call
            raise DomainError(f"timeout_s must be <= 86400, got {self.timeout_s}")
        check_minimums(self, max_attempts=1, max_inflight=1)
        if self.cache_mode != "off" and not self.cache_path:
            raise DomainError(f"cache_path: required for cache_mode {self.cache_mode!r}")


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

    def __post_init__(self) -> None:
        check_minimums(self, trials=1, parallel_trials=1, max_gateway_calls=0)
        if self.run.seed:
            raise DomainError(
                f"run.seed: trial i runs with seed_base + i, so set seed_base instead; got {self.run.seed}"
            )


# ---------------------------------------------------------------------------
# parsing, read from the dataclasses above

# Scalar annotation: (what an error message calls it, whether a document
# value is one). The float bound refuses NaN, the infinities and an integer
# too large for a float: an int compares with a float exactly.
_SCALARS = {
    bool: ("true/false", lambda value: isinstance(value, bool)),
    int: ("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool)),
    float: (
        "a finite number",
        lambda value: isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max,
    ),
    str: ("a string", lambda value: isinstance(value, str)),
}

Converter = Callable[[Any, str], Any]


def _bare(hint: Any) -> Any:
    """``hint`` without its ``| None``."""
    if get_origin(hint) in (Union, UnionType):
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    return hint


def choices_of(hint: Any) -> tuple:
    """The values a ``Literal`` or ``Enum`` annotation allows; () for others."""
    if get_origin(hint) is Literal:
        return get_args(hint)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return tuple(member.value for member in hint)
    return ()


def _converter(hint: Any) -> Converter:
    """A function of (document value, dotted path) that checks the value
    against ``hint`` and returns it as the field holds it."""
    bare = _bare(hint)
    if bare is not hint:
        convert = _converter(bare)
        return lambda value, path: None if value is None else convert(value, path)
    if get_origin(hint) is tuple:
        convert = _converter(get_args(hint)[0])

        def items(value: Any, path: str) -> tuple:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{path}: expected a list, got {value!r}")
            return tuple(convert(item, f"{path}[{i}]") for i, item in enumerate(value))

        return items
    if dataclasses.is_dataclass(hint):
        return lambda value, path: _parse_section(hint, value, path)
    choices = choices_of(hint)
    if choices:
        enum = hint if isinstance(hint, type) else None

        def choose(value: Any, path: str) -> Any:
            if value not in choices:
                raise ConfigError(f"{path}: expected one of {', '.join(choices)}, got {value!r}")
            return value if enum is None else enum(value)

        return choose
    what, accepts = _SCALARS[hint]

    def scalar(value: Any, path: str) -> Any:
        if not accepts(value):
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        return float(value) if hint is float else value

    return scalar


# Each config class's resolved annotations, field converters and required
# fields, read once at import: resolving annotations costs more than a parse.
_HINTS = {
    cls: get_type_hints(cls)
    for cls in (ExperimentConfig, RunConfig, GenerationParams, TaskSettings, BackendSettings, SweepSettings)
}
_FIELDS = {cls: {f.name: _converter(hints[f.name]) for f in dataclasses.fields(cls)} for cls, hints in _HINTS.items()}
_REQUIRED = {
    cls: tuple(
        f.name for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    for cls in _HINTS
}


def field_type(dotted: str) -> tuple[Any, Any]:
    """The annotation, without ``| None``, and the default of the config
    field at ``dotted``."""
    *sections, name = dotted.split(".")
    cls = ExperimentConfig
    for key in sections:
        cls = _bare(_HINTS[cls][key])
    default = next(f.default for f in dataclasses.fields(cls) if f.name == name)
    return _bare(_HINTS[cls][name]), default


def _parse_section(cls: type, data: Any, path: str) -> Any:
    """``data`` as a ``cls``: only fields without a default are required,
    each value is checked against its annotation, and an unknown field or a
    :class:`DomainError` from ``cls`` is a :class:`ConfigError` at ``path``,
    or at the path of the field that the error's first word names."""
    where = path or "config"
    if data is None:
        data = {}
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    required = _REQUIRED[cls]
    if required and not all(name in data for name in required):
        raise ConfigError(f"{where}: needs {' and '.join(required)}")
    fields, kwargs = _FIELDS[cls], {}
    prefix = f"{path}." if path else ""
    for key, value in data.items():
        convert = fields.get(key)
        if convert is None:
            raise UnknownFieldError(f"{where}.{key}: unknown field")
        kwargs[key] = convert(value, prefix + key)
    try:
        return cls(**kwargs)
    except DomainError as exc:
        head = re.match(r"\w*", str(exc)).group()
        raise ConfigError(f"{prefix}{exc}" if head in fields else f"{where}: {exc}") from exc


def axis_run(run: RunConfig, axis: SweepAxis, value: float) -> RunConfig:
    """``run`` with the swept field set to ``value``."""
    if axis in (SweepAxis.ALPHA, SweepAxis.TEMPERATURE):
        return dataclasses.replace(run, generation=dataclasses.replace(run.generation, **{axis.value: value}))
    return dataclasses.replace(run, **{axis.value: int(value)})


def _check_sweep(sweep: SweepSettings, run: RunConfig) -> None:
    """Refuse a sweep whose values would all run the same trial, one that
    repeats a value, or one of whose values its field refuses."""
    axis, mode = sweep.axis, run.generation.mode
    if not sweep.values:
        raise ConfigError("sweep.values: expected a nonempty list")
    for i, value in enumerate(sweep.values):
        if value in sweep.values[:i]:
            raise ConfigError(f"sweep.values[{i}]: {value!r} repeats an earlier value")
    if axis in (SweepAxis.BATCH_SIZE, SweepAxis.TRAIN_SIZE):
        for i, value in enumerate(sweep.values):
            if not value.is_integer():
                raise ConfigError(f"sweep.values[{i}]: {axis.value} values must be integers")
        if mode is not GenerationMode.CASE2_GRADIENT:
            raise ConfigError(
                f"sweep.axis: {axis.value} sweeps need run.generation.mode: case2_gradient "
                "(only it draws a train batch)"
            )
    if axis is SweepAxis.ALPHA and (mode is GenerationMode.CONCAT_BASELINE or not run.use_momentum):
        raise ConfigError(
            "sweep.axis: alpha sweeps need run.use_momentum: true and a mode other than "
            "concat_baseline (only the momentum update reads alpha)"
        )
    for i, value in enumerate(sweep.values):
        try:
            axis_run(run, axis, value)
        except DomainError as exc:
            raise ConfigError(f"sweep.values[{i}]: {exc}") from exc


def parse_config_data(data: Any) -> ExperimentConfig:
    """Validate a parsed config mapping against the config classes (every
    field optional, strict on unknown fields), then check the sweep rules,
    which read both the ``sweep`` and the ``run`` section."""
    config = _parse_section(ExperimentConfig, data, "")
    if config.sweep is not None:
        _check_sweep(config.sweep, config.run)
    return config


def load_document(text: str) -> dict:
    """The mapping of a YAML or JSON config document: an empty document is
    an empty mapping, and any other value that is not a mapping is refused."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: not valid YAML/JSON: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config: expected a mapping, got {type(data).__name__}")
    return data


def parse_config(text: str) -> ExperimentConfig:
    """Parse a YAML or JSON config document."""
    return parse_config_data(load_document(text))
