"""The config schema: every field and every flag of the command line.

For each field of each config section, and each top-level field, a
well-typed value parses into that field and a wrong-typed one raises
:class:`ConfigError` naming its dotted path. Each ``run``/``sweep`` flag
sets the field it names, with that field's type and choices, and the
flags that ``--help`` lists are exactly the ones tabled here. So a change
to the parser that keeps this file passing neither adds nor drops an
option.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import re

import pytest

import tsgdm.cli as cli
from tsgdm import ConfigError, GenerationParams, HypothesisPreset, RunConfig, ScriptRule
from tsgdm.cli import (
    BackendSettings,
    ExperimentConfig,
    SweepAxis,
    SweepSettings,
    TaskSettings,
    main,
    parse_config_data,
)
from tsgdm.optimizer import GenerationMode

SECTIONS = {
    "run": RunConfig,
    "run.generation": GenerationParams,
    "task": TaskSettings,
    "backend": BackendSettings,
    "sweep": SweepSettings,
}
CUSTOM = {"run": {"hypothesis_preset": "custom"}}
SWEEP = {"sweep": {"axis": "alpha", "values": [0.5]}}

# dotted path: (well-typed value, the field it parses into, wrong-typed
# value, the rest of the document)
FIELDS = {
    "run": ({"seed": 3}, RunConfig(seed=3), 3, {}),
    "task": ({"name": "sst2"}, TaskSettings(name="sst2"), 3, {}),
    "backend": ({"model": "m"}, BackendSettings(model="m"), 3, {}),
    "trials": (3, 3, "many", {}),
    "seed_base": (5, 5, 1.5, {}),
    "sweep": (SWEEP["sweep"], SweepSettings(SweepAxis.ALPHA, (0.5,)), 3, {}),
    "output_dir": ("out", "out", 3, {}),
    "max_gateway_calls": (0, 0, "many", {}),
    "parallel_trials": (2, 2, True, {}),
    "run.total_iterations": (0, 0, "x", {}),
    "run.batch_size": (5, 5, "many", {}),
    "run.train_size": (50, 50, 2.5, {}),
    "run.patience": (3, 3, "x", CUSTOM),
    "run.hypothesis_preset": ("H1", HypothesisPreset.H1, 3, {}),
    "run.seed": (7, 7, True, {}),
    "run.generation": ({"alpha": 0.3}, GenerationParams(alpha=0.3), 3, {}),
    "run.use_momentum": (False, False, 1, {}),
    "run.sample_with_replacement": (True, True, "yes", {}),
    "run.generation.alpha": (0.25, 0.25, "x", {}),
    "run.generation.max_total_tokens": (50, 50, 1.5, {}),
    "run.generation.block_tokens": (5, 5, "x", {}),
    "run.generation.temperature": (1, 1.0, True, CUSTOM),
    "run.generation.candidates": (3, 3, "x", {}),
    "run.generation.mode": ("case2_gradient", GenerationMode.CASE2_GRADIENT, 3, {}),
    "run.generation.refine_template": ("Improve: {prompt}", "Improve: {prompt}", 3, {}),
    "run.generation.analyze_template": ("Why {prompt}: {examples}", "Why {prompt}: {examples}", ["x"], {}),
    "task.name": ("sst2", "sst2", 3, {}),
    "task.train_path": ("a.jsonl", "a.jsonl", 3, {}),
    "task.holdout_path": ("b.jsonl", "b.jsonl", 3, {}),
    "task.test_path": ("c.jsonl", "c.jsonl", 3, {}),
    "task.labels": (["yes", "no"], ("yes", "no"), [1, 2], {}),
    "task.initial_prompt": ("Answer.", "Answer.", 3, {}),
    "task.exact_match": (True, True, "no", {}),
    "task.synthetic_train": (20, 20, "x", {}),
    "task.synthetic_holdout": (8, 8, "x", {}),
    "task.synthetic_test": (8, 8, "x", {}),
    "task.synthetic_seed": (3, 3, "x", {}),
    "backend.kind": ("openai", "openai", 3, {}),
    "backend.base_url": ("http://localhost:1/v1", "http://localhost:1/v1", 3, {}),
    "backend.model": ("m", "m", 3, {}),
    "backend.api_key_env": ("KEY", "KEY", 3, {}),
    "backend.timeout_s": (5, 5.0, "x", {}),
    "backend.chat": (False, False, "yes", {}),
    "backend.max_attempts": (2, 2, 2.5, {}),
    "backend.max_inflight": (3, 3, "many", {}),
    "backend.cache_mode": ("passthrough", "passthrough", 3, {}),
    "backend.cache_path": ("c.jsonl", "c.jsonl", 3, {}),
    "backend.scripted_rules": ([{"pattern": "p", "response": "r"}], (ScriptRule("p", "r"),), 3, {}),
    "backend.scripted_default_response": (" x", " x", 3, {}),
    "sweep.axis": ("temperature", SweepAxis.TEMPERATURE, 3, {**CUSTOM, **SWEEP}),
    "sweep.values": ([1, 0.5], (1.0, 0.5), "abc", SWEEP),
}

# flag: (dotted path, argument or None for a switch, the value it sets,
# choices or None, an argument the flag's type refuses or None)
RUN_FLAGS = {
    "--task": ("task.name", "sst2", "sst2", None, None),
    "--train-path": ("task.train_path", "a.jsonl", "a.jsonl", None, None),
    "--holdout-path": ("task.holdout_path", "b.jsonl", "b.jsonl", None, None),
    "--test-path": ("task.test_path", "c.jsonl", "c.jsonl", None, None),
    "--initial-prompt": ("task.initial_prompt", "Answer.", "Answer.", None, None),
    "--labels": ("task.labels", "yes,no", ("yes", "no"), None, None),
    "--backend": ("backend.kind", "openai", "openai", ("scripted", "openai"), "pigeon"),
    "--base-url": ("backend.base_url", "http://localhost:1/v1", "http://localhost:1/v1", None, None),
    "--model": ("backend.model", "m", "m", None, None),
    "--api-key-env": ("backend.api_key_env", "KEY", "KEY", None, None),
    "--cache-mode": (
        "backend.cache_mode", "passthrough", "passthrough", ("off", "record", "replay", "passthrough"), "sometimes",
    ),
    "--cache-path": ("backend.cache_path", "c.jsonl", "c.jsonl", None, None),
    "--max-inflight": ("backend.max_inflight", "3", 3, None, "1.5"),
    "--iterations": ("run.total_iterations", "0", 0, None, "1.5"),
    "--batch-size": ("run.batch_size", "5", 5, None, "x"),
    "--train-size": ("run.train_size", "50", 50, None, "x"),
    "--patience": ("run.patience", "3", 3, None, "1.5"),
    "--preset": ("run.hypothesis_preset", "H1", HypothesisPreset.H1, ("H0", "H1", "custom"), "H2"),
    "--alpha": ("run.generation.alpha", "0.25", 0.25, None, "x"),
    "--temperature": ("run.generation.temperature", "0.9", 0.9, None, "x"),
    "--block-tokens": ("run.generation.block_tokens", "5", 5, None, "x"),
    "--max-total-tokens": ("run.generation.max_total_tokens", "50", 50, None, "x"),
    "--candidates": ("run.generation.candidates", "3", 3, None, "x"),
    "--mode": (
        "run.generation.mode", "case2_gradient", GenerationMode.CASE2_GRADIENT,
        ("case1_meta_prompt", "case2_gradient", "concat_baseline"), "case3",
    ),
    "--no-momentum": ("run.use_momentum", None, False, None, None),
    "--with-replacement": ("run.sample_with_replacement", None, True, None, None),
    "--trials": ("trials", "3", 3, None, "x"),
    "--seed-base": ("seed_base", "5", 5, None, "x"),
    "--output-dir": ("output_dir", "out", "out", None, None),
    "--max-gateway-calls": ("max_gateway_calls", "0", 0, None, "x"),
    "--parallel-trials": ("parallel_trials", "2", 2, None, "x"),
}
SWEEP_FLAGS = {
    **RUN_FLAGS,
    "--axis": ("sweep.axis", "temperature", SweepAxis.TEMPERATURE, tuple(axis.value for axis in SweepAxis), "tide"),
    "--values": ("sweep.values", "1,0.5", (1.0, 0.5), None, None),
}
# Flags that need another one to parse.
FLAG_CONTEXT = {"--patience": ["--preset", "custom"], "--temperature": ["--preset", "custom"]}
SWEEP_CONTEXT = ["--preset", "custom", "--axis", "temperature", "--values", "0.5"]


def nest(dotted: str, value) -> dict:
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


def merged(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merged(out[key], value)
        else:
            out[key] = value
    return out


def field_at(config: ExperimentConfig, dotted: str):
    return functools.reduce(getattr, dotted.split("."), config)


def test_the_field_table_covers_every_field():
    paths = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for section, cls in SECTIONS.items():
        paths |= {f"{section}.{f.name}" for f in dataclasses.fields(cls)}
    assert set(FIELDS) == paths


@pytest.mark.parametrize("dotted", sorted(FIELDS))
def test_a_well_typed_value_parses_into_its_field(dotted):
    good, expected, _, context = FIELDS[dotted]
    got = field_at(parse_config_data(merged(context, nest(dotted, good))), dotted)
    assert got == expected
    assert type(got) is type(expected)


@pytest.mark.parametrize("dotted", sorted(FIELDS))
def test_a_wrong_typed_value_names_its_path(dotted):
    _, _, bad, context = FIELDS[dotted]
    with pytest.raises(ConfigError, match=re.escape(dotted)):
        parse_config_data(merged(context, nest(dotted, bad)))


def listed_flags(command: str, capsys) -> dict:
    """Each flag of ``command --help`` with its choices, or None."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    flags = {}
    for flag, choices in re.findall(r"(--[a-z][a-z-]*)(?: \{([^}]*)\})?", text):
        flags[flag] = tuple(choices.split(",")) if choices else flags.get(flag)
    return flags


@pytest.mark.parametrize("command, table", [("run", RUN_FLAGS), ("sweep", SWEEP_FLAGS)])
def test_help_lists_exactly_the_tabled_flags_and_choices(command, table, capsys):
    expected = {flag: entry[3] for flag, entry in table.items()}
    assert listed_flags(command, capsys) == {**expected, "--help": None, "--config": None}


@pytest.fixture
def captured(monkeypatch):
    """Configs that ``main`` would run, without running them."""
    configs = []
    summary = {"completed": 1, "trials": 1, "failed": 0, "mean_final_test_accuracy": None}
    monkeypatch.setattr(cli, "run_experiment", lambda config: configs.append(config) or summary)
    monkeypatch.setattr(cli, "run_sweep", lambda config: configs.append(config) or [])
    return configs


FLAG_CASES = [("run", flag, FLAG_CONTEXT.get(flag, [])) for flag in RUN_FLAGS]
FLAG_CASES += [("sweep", flag, SWEEP_CONTEXT) for flag in ("--axis", "--values")]


@pytest.mark.parametrize("command, flag, context", FLAG_CASES, ids=[f"{c} {f}" for c, f, _ in FLAG_CASES])
def test_each_flag_sets_its_field(command, flag, context, captured):
    dotted, argument, expected, _, _ = SWEEP_FLAGS[flag]
    argv = [command, *context, flag] + ([] if argument is None else [argument])
    assert main(argv) == 0
    got = field_at(captured[-1], dotted)
    assert got == expected
    assert type(got) is type(expected)


@pytest.mark.parametrize("flag", [flag for flag, entry in SWEEP_FLAGS.items() if entry[4] is not None])
def test_each_flag_refuses_a_value_its_field_cannot_hold(flag, captured, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", flag, SWEEP_FLAGS[flag][4]])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert captured == []
