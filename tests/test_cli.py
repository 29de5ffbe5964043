"""Config parsing, experiment driver, sweeps, and the command line."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import tsgdm.cli as cli
from tsgdm import (
    ConfigError,
    DomainError,
    GenerationParams,
    HypothesisPreset,
    ReplayCache,
    ScriptedBackend,
    UnknownFieldError,
)
from tsgdm.cli import (
    BackendSettings,
    ExperimentConfig,
    build_cache,
    build_task,
    main,
    parse_config,
    parse_config_data,
    run_experiment,
    run_sweep,
)
from tsgdm.gateway import CallPool


def tiny_config(**top) -> ExperimentConfig:
    data = {
        "run": {
            "total_iterations": 2,
            "batch_size": 3,
            "train_size": 10,
            "generation": {"candidates": 2, "block_tokens": 8, "max_total_tokens": 8},
        },
        "task": {"synthetic_train": 12, "synthetic_holdout": 6, "synthetic_test": 6},
    }
    data.update(top)
    return parse_config_data(data)


# Documents that set a field the prompts and the offline script once read,
# now constants, by its dotted path.
REMOVED_FIELDS = {
    "run.generation.refine_template": {"run": {"generation": {"refine_template": "Improve: {prompt}"}}},
    "run.generation.analyze_template": {"run": {"generation": {"analyze_template": "Why {prompt}: {examples}"}}},
    "backend.scripted_rules": {"backend": {"scripted_rules": []}},
    "backend.scripted_default_response": {"backend": {"scripted_default_response": " x"}},
}


# tiny_config's generation in the one mode whose batch a sweep can vary.
GRADIENT_GENERATION = {"candidates": 2, "block_tokens": 8, "max_total_tokens": 8, "mode": "case2_gradient"}


# (patience, temperature) that each preset forces.
PRESET_POINTS = {"H0": (2, 0.7), "H1": (5, 1.1)}


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        config = parse_config("")
        assert config.run.total_iterations == 20
        assert config.run.batch_size == 20
        assert config.run.train_size == 400
        assert config.run.patience == 2
        assert config.run.hypothesis_preset is HypothesisPreset.H0
        assert config.run.generation.alpha == 0.6
        assert config.run.generation.max_total_tokens == 100
        assert config.run.generation.block_tokens == 10
        assert config.run.generation.temperature == 0.7
        assert config.run.generation.candidates == 20
        assert config.run.use_momentum is True
        assert config.trials == 1
        assert config.task.name == "synthetic"
        assert config.backend.kind == "scripted"
        assert config.backend.cache_mode == "off"
        assert config.sweep is None

    def test_h1_preset_forces_operating_point(self):
        config = parse_config("run:\n  hypothesis_preset: H1\n")
        assert config.run.generation.temperature == 1.1
        assert config.run.patience == 5

    @pytest.mark.parametrize("preset", [None, "H0", "H1"], ids=["default", "H0", "H1"])
    def test_a_preset_refuses_another_patience_or_temperature(self, preset):
        # H0 is the default preset; each forces its operating point, so an
        # explicit other value would be silently overwritten.
        name = preset or "H0"
        patience, temperature = PRESET_POINTS[name]
        run = {} if preset is None else {"hypothesis_preset": preset}
        with pytest.raises(ConfigError, match=f"run.patience: preset {name} sets {patience}"):
            parse_config_data({"run": {**run, "patience": patience + 1}})
        with pytest.raises(ConfigError, match=f"run.generation.temperature: preset {name}"):
            parse_config_data({"run": {**run, "generation": {"temperature": temperature + 0.5}}})
        config = parse_config_data({"run": {**run, "patience": patience, "generation": {"temperature": temperature}}})
        assert (config.run.patience, config.run.generation.temperature) == (patience, temperature)

    def test_json_document_accepted(self):
        config = parse_config('{"run": {"batch_size": 5}, "trials": 3}')
        assert config.run.batch_size == 5
        assert config.trials == 3

    def test_domain_error_is_wrapped_with_path(self):
        with pytest.raises(ConfigError, match="generation") as excinfo:
            parse_config("run:\n  generation:\n    alpha: 1.5\n")
        assert "alpha" in str(excinfo.value)

    @pytest.mark.parametrize("template", ["x {prompt} {oops", "{prompt} {nope}"])
    def test_unrenderable_template_is_a_config_error(self, template):
        # The rewrite prompts are constants: a document's template is refused unread.
        with pytest.raises(UnknownFieldError, match=r"^run\.generation\.refine_template: unknown field$"):
            parse_config_data({"run": {"generation": {"refine_template": template}}})

    def test_unknown_field_rejected(self):
        with pytest.raises(UnknownFieldError, match="run.blocksize"):
            parse_config("run:\n  blocksize: 3\n")
        with pytest.raises(UnknownFieldError, match="config.whatever"):
            parse_config("whatever: 1\n")
        # The fields that chose the prompts and the offline script, now constants.
        for dotted, document in REMOVED_FIELDS.items():
            with pytest.raises(UnknownFieldError, match=rf"^{re.escape(dotted)}: unknown field$"):
                parse_config_data(document)

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="run.batch_size"):
            parse_config("run:\n  batch_size: many\n")
        with pytest.raises(ConfigError, match="run.batch_size"):
            parse_config("run:\n  batch_size: true\n")
        with pytest.raises(ConfigError, match="run.use_momentum"):
            parse_config("run:\n  use_momentum: 1\n")
        with pytest.raises(ConfigError, match="task.labels"):
            parse_config("task:\n  labels: [1, 2]\n")

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigError):
            parse_config("- 1\n- 2\n")

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("run: [")

    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config("trials: 0\n")
        with pytest.raises(ConfigError, match="parallel_trials"):
            parse_config("parallel_trials: 0\n")
        with pytest.raises(ConfigError, match="max_gateway_calls"):
            parse_config("max_gateway_calls: -1\n")


# A config class refuses a value out of its range when built in Python too,
# not only when parsed: (build, the refusal it raises).
REFUSALS = [
    (lambda: ExperimentConfig(trials=0), "trials must be >= 1, got 0"),
    (lambda: ExperimentConfig(parallel_trials=0), "parallel_trials must be >= 1, got 0"),
    (lambda: ExperimentConfig(max_gateway_calls=-1), "max_gateway_calls must be >= 0, got -1"),
    (lambda: BackendSettings(max_inflight=0), "max_inflight must be >= 1, got 0"),
    (lambda: BackendSettings(max_attempts=0), "max_attempts must be >= 1, got 0"),
    (lambda: BackendSettings(timeout_s=0.0), "timeout_s must be > 0, got 0.0"),
    (lambda: BackendSettings(timeout_s=math.nan), "timeout_s must be > 0, got nan"),
    (lambda: BackendSettings(timeout_s=math.inf), "timeout_s must be <= 86400, got inf"),
    (lambda: BackendSettings(timeout_s=1e10), "timeout_s must be <= 86400, got 10000000000.0"),
    (lambda: GenerationParams(temperature=math.nan), "temperature must be >= 0, got nan"),
    (lambda: ExperimentConfig(trials=math.nan), "trials must be >= 1, got nan"),
    (lambda: BackendSettings(cache_mode="record"), "cache_path: required for cache_mode 'record'"),
    (lambda: BackendSettings(cache_mode="replay"), "cache_path: required for cache_mode 'replay'"),
]


@pytest.mark.parametrize("build, refusal", REFUSALS, ids=[refusal for _, refusal in REFUSALS])
def test_a_config_class_refuses_without_the_parser(build, refusal):
    with pytest.raises(DomainError) as excinfo:
        build()
    assert str(excinfo.value) == refusal


class TestParseBackend:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="backend.kind"):
            parse_config("backend:\n  kind: carrier-pigeon\n")

    def test_unknown_cache_mode(self):
        with pytest.raises(ConfigError, match="cache_mode"):
            parse_config("backend:\n  cache_mode: sometimes\n")

    def test_record_requires_cache_path(self):
        with pytest.raises(ConfigError, match="cache_path"):
            parse_config("backend:\n  cache_mode: record\n")

    @pytest.mark.parametrize("name, value", [("max_attempts", 0), ("timeout_s", -1)])
    def test_remote_limits_are_refused_at_parse_time(self, name, value):
        with pytest.raises(ConfigError, match=f"backend.{name} must be"):
            parse_config_data({"backend": {"kind": "openai", name: value}})

    def test_max_inflight(self):
        assert parse_config("").backend.max_inflight == 24
        assert parse_config("backend:\n  max_inflight: 1\n").backend.max_inflight == 1
        with pytest.raises(ConfigError, match="backend.max_inflight"):
            parse_config("backend:\n  max_inflight: 0\n")
        with pytest.raises(ConfigError, match="backend.max_inflight"):
            parse_config("backend:\n  max_inflight: many\n")


class TestParseSweep:
    def test_valid_sweep(self):
        config = parse_config(
            "run:\n  generation:\n    mode: case2_gradient\nsweep:\n  axis: batch_size\n  values: [4, 2]\n"
        )
        assert config.sweep.axis.value == "batch_size"
        assert config.sweep.values == (4.0, 2.0)

    def test_values_must_be_nonempty(self):
        with pytest.raises(ConfigError, match="values"):
            parse_config("sweep:\n  axis: alpha\n  values: []\n")

    @pytest.mark.parametrize(
        "axis, values, refusal",
        [
            ("alpha", "[0.5, 0.5]", "sweep.values[1]: 0.5 repeats"),
            ("batch_size", "[5, 2, 5.0]", "sweep.values[2]: 5.0 repeats"),
        ],
    )
    def test_a_repeated_value_is_refused(self, axis, values, refusal):
        mode = "run:\n  generation:\n    mode: case2_gradient\n"
        with pytest.raises(ConfigError, match=re.escape(refusal)):
            parse_config(f"{mode}sweep:\n  axis: {axis}\n  values: {values}\n")

    def test_size_axes_need_integers(self):
        with pytest.raises(ConfigError, match="integers"):
            parse_config("sweep:\n  axis: batch_size\n  values: [2.5]\n")
        with pytest.raises(ConfigError, match=r"sweep.values\[0\]: train_size values must be integers"):
            parse_config("sweep:\n  axis: train_size\n  values: [10.5]\n")
        with pytest.raises(ConfigError, match=r"sweep.values\[0\]: expected a finite number, got inf"):
            parse_config("sweep:\n  axis: train_size\n  values: [.inf]\n")

    def test_temperature_sweep_needs_custom_preset(self):
        with pytest.raises(ConfigError, match="custom"):
            parse_config("sweep:\n  axis: temperature\n  values: [0.5, 1.0]\n")
        config = parse_config(
            "run:\n  hypothesis_preset: custom\nsweep:\n  axis: temperature\n  values: [0.5]\n"
        )
        assert config.sweep.axis.value == "temperature"

    def test_unknown_axis(self):
        with pytest.raises(ConfigError, match="axis"):
            parse_config("sweep:\n  axis: moon_phase\n  values: [1]\n")

    @pytest.mark.parametrize("axis", ["batch_size", "train_size"])
    @pytest.mark.parametrize("mode", [None, "case1_meta_prompt", "concat_baseline"])
    def test_batch_sweep_needs_gradient_mode(self, axis, mode):
        # Only gradient mode draws a train batch, so elsewhere every value
        # of the sweep would run the same trial.
        run = {} if mode is None else {"generation": {"mode": mode}}
        with pytest.raises(ConfigError, match="case2_gradient"):
            parse_config_data({"run": run, "sweep": {"axis": axis, "values": [2, 4]}})
        run = {"generation": {"mode": "case2_gradient"}}
        config = parse_config_data({"run": run, "sweep": {"axis": axis, "values": [2, 4]}})
        assert config.sweep.axis.value == axis

    @pytest.mark.parametrize(
        "run",
        [{"generation": {"mode": "concat_baseline"}}, {"use_momentum": False}],
        ids=["concat", "no-momentum"],
    )
    def test_alpha_sweep_needs_momentum(self, run):
        with pytest.raises(ConfigError, match="momentum"):
            parse_config_data({"run": run, "sweep": {"axis": "alpha", "values": [0.2, 0.8]}})

    @pytest.mark.parametrize("mode", ["case1_meta_prompt", "case2_gradient"])
    def test_alpha_sweep_under_momentum(self, mode):
        config = parse_config_data(
            {"run": {"generation": {"mode": mode}}, "sweep": {"axis": "alpha", "values": [0.2, 0.8]}}
        )
        assert config.sweep.axis.value == "alpha"


class TestBuildTask:
    def test_synthetic_default(self):
        task = build_task(tiny_config().task)
        assert task.name == "synthetic"
        assert (len(task.train), len(task.holdout), len(task.test)) == (12, 6, 6)

    def test_preset_requires_dataset_paths(self):
        config = parse_config_data({"task": {"name": "sst2"}})
        with pytest.raises(ConfigError, match="train_path"):
            build_task(config.task)

    def test_unknown_preset_name(self):
        config = parse_config_data(
            {"task": {"name": "nope", "train_path": "x", "holdout_path": "y", "test_path": "z"}}
        )
        with pytest.raises(ConfigError, match="nope"):
            build_task(config.task)

    def test_custom_requires_initial_prompt(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "yes"}\n', encoding="utf-8")
        config = parse_config_data(
            {
                "task": {
                    "name": "custom",
                    "train_path": str(path),
                    "holdout_path": str(path),
                    "test_path": str(path),
                    "labels": ["yes", "no"],
                }
            }
        )
        with pytest.raises(ConfigError, match="initial_prompt"):
            build_task(config.task)

    def test_custom_task_from_files(self, tmp_path):
        def write(name, rows):
            path = tmp_path / name
            path.write_text(
                "".join(json.dumps({"text": t, "label": l}) + "\n" for t, l in rows),
                encoding="utf-8",
            )
            return str(path)

        config = parse_config_data(
            {
                "task": {
                    "name": "custom",
                    "train_path": write("train.jsonl", [("a", "yes"), ("b", "no")]),
                    "holdout_path": write("holdout.jsonl", [("c", "yes")]),
                    "test_path": write("test.jsonl", [("d", "no")]),
                    "labels": ["yes", "no"],
                    "initial_prompt": "Answer yes or no.",
                }
            }
        )
        task = build_task(config.task)
        assert task.label_set == ("yes", "no")
        assert len(task.train) == 2

    def test_replay_cache_requires_existing_file(self, tmp_path):
        config = parse_config_data(
            {"backend": {"cache_mode": "replay", "cache_path": str(tmp_path / "missing.jsonl")}}
        )
        with pytest.raises(ConfigError, match="existing"):
            build_cache(config.backend)


# The backend identity a default config records into a cache header.
DEFAULT_IDENTITY = {"kind": "scripted", "base_url": "https://api.openai.com/v1", "model": "gpt-4o-mini", "chat": True}


class TestReplayHeader:
    def record(self, tmp_path) -> Path:
        path = tmp_path / "cache.jsonl"
        config = tiny_config(
            backend={"cache_mode": "record", "cache_path": str(path)}, output_dir=str(tmp_path / "out")
        )
        run_experiment(config, echo=lambda *a: None)
        return path

    def test_record_writes_the_backend_identity_first(self, tmp_path):
        lines = self.record(tmp_path).read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"backend": DEFAULT_IDENTITY}
        assert all("digest" in json.loads(line) for line in lines[1:])

    @pytest.mark.parametrize("mode", ["replay", "record"])
    @pytest.mark.parametrize(
        "name, value", [("kind", "openai"), ("base_url", "http://localhost:9/v1"), ("model", "other"), ("chat", False)]
    )
    def test_a_file_of_another_backend_is_refused(self, tmp_path, mode, name, value):
        path = self.record(tmp_path)
        config = parse_config_data({"backend": {"cache_mode": mode, "cache_path": str(path), name: value}})
        with pytest.raises(ConfigError, match="backend.cache_path") as excinfo:
            build_cache(config.backend)
        assert f"{name}={DEFAULT_IDENTITY[name]!r}" in str(excinfo.value)
        assert f"{name}={value!r}" in str(excinfo.value)

    @pytest.mark.parametrize("mode", ["replay", "record"])
    def test_a_file_without_a_header_is_refused(self, tmp_path, mode):
        path = self.record(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[1:]), encoding="utf-8")
        config = parse_config_data({"backend": {"cache_mode": mode, "cache_path": str(path)}})
        with pytest.raises(ConfigError, match="no backend header"):
            build_cache(config.backend)

    def test_a_matching_file_loads_for_replay_and_record(self, tmp_path):
        path = self.record(tmp_path)
        for mode in ("replay", "record"):
            config = parse_config_data({"backend": {"cache_mode": mode, "cache_path": str(path)}})
            cache = build_cache(config.backend)
            assert (cache.replay, cache.backend, len(cache) > 0) == (mode == "replay", DEFAULT_IDENTITY, True)


class TestRunExperiment:
    def test_writes_trial_log_and_summary(self, tmp_path):
        config = tiny_config(output_dir=str(tmp_path / "out"))
        summary = run_experiment(config, echo=lambda *a: None)
        out = tmp_path / "out"
        trial = read_json(out / "trial_000.json")
        assert trial["status"] == "complete"
        assert trial["seed"] == 0
        assert trial["final_test_accuracy"] == 1.0
        assert trial["per_iteration"][0]["iteration"] == 0
        log_lines = (out / "run_log.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(log_lines) == len(trial["per_iteration"])
        assert json.loads(log_lines[0])["trial"] == 0
        written = read_json(out / "summary.json")
        assert written == summary
        assert summary["completed"] == 1
        assert summary["failed"] == 0
        assert summary["mean_final_test_accuracy"] == 1.0
        assert summary["std_final_test_accuracy"] == 0.0

    def test_multiple_trials(self, tmp_path):
        config = tiny_config(trials=2, output_dir=str(tmp_path / "out"))
        summary = run_experiment(config, echo=lambda *a: None)
        assert (tmp_path / "out" / "trial_000.json").exists()
        assert (tmp_path / "out" / "trial_001.json").exists()
        assert read_json(tmp_path / "out" / "trial_001.json")["seed"] == 1
        assert len(summary["per_trial_final_test_accuracy"]) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            run_experiment(tiny_config(output_dir=str(tmp_path / name)), echo=lambda *a: None)
        for filename in ("trial_000.json", "run_log.jsonl"):
            assert (tmp_path / "a" / filename).read_bytes() == (
                tmp_path / "b" / filename
            ).read_bytes()

    def test_parallel_trials_match_sequential(self, tmp_path):
        run_experiment(
            tiny_config(trials=3, output_dir=str(tmp_path / "seq")), echo=lambda *a: None
        )
        run_experiment(
            tiny_config(trials=3, parallel_trials=3, output_dir=str(tmp_path / "par")),
            echo=lambda *a: None,
        )
        for i in range(3):
            name = f"trial_{i:03d}.json"
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()

    def test_parallel_trials_share_one_pool_and_a_crash_stops_new_trials(self, tmp_path, monkeypatch):
        """A run's trials take turns on one pool of ``parallel_trials``; an
        error outside the package's own types stops further trials from
        starting, and the record cache is saved all the same."""
        widths, started, second = [], [], threading.Event()
        monkeypatch.setattr(cli, "CallPool", lambda width: widths.append(width) or CallPool(width))
        real = cli._run_one_trial

        def trial(config, task, cache, i):
            started.append(i)
            if i == 0:  # fails while trial 1 runs
                second.wait(5)
                raise RuntimeError("crash in trial 0")
            second.set()
            time.sleep(0.05)
            return real(config, task, cache, i)

        monkeypatch.setattr(cli, "_run_one_trial", trial)
        cache_path = tmp_path / "cache.jsonl"
        config = tiny_config(
            trials=4, parallel_trials=2, output_dir=str(tmp_path / "out"),
            backend={"cache_mode": "record", "cache_path": str(cache_path)},
        )
        with pytest.raises(RuntimeError, match="crash in trial 0"):
            run_experiment(config, echo=lambda *a: None)
        assert widths[0] == 2
        assert sorted(started) == [0, 1]
        assert len(ReplayCache.load(cache_path)) > 0

    def test_a_crash_keeps_the_files_of_the_trials_that_ended(self, tmp_path, monkeypatch):
        """Each trial's file is written as its trial ends, so a crash in a
        later trial loses none of the earlier ones."""
        whole = tiny_config(trials=3, output_dir=str(tmp_path / "whole"))
        run_experiment(whole, echo=lambda *a: None)
        real = cli._run_one_trial

        def trial(config, task, cache, i):
            if i == 2:
                raise RuntimeError("crash in trial 2")
            return real(config, task, cache, i)

        monkeypatch.setattr(cli, "_run_one_trial", trial)
        crashed = tmp_path / "crashed"
        with pytest.raises(RuntimeError, match="crash in trial 2"):
            run_experiment(dataclasses.replace(whole, output_dir=str(crashed)), echo=lambda *a: None)
        assert sorted(path.name for path in crashed.iterdir()) == ["trial_000.json", "trial_001.json"]
        for name in ("trial_000.json", "trial_001.json"):
            assert (crashed / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    def test_failed_trial_reported_honestly(self, tmp_path):
        config = tiny_config(max_gateway_calls=8, output_dir=str(tmp_path / "out"))
        summary = run_experiment(config, echo=lambda *a: None)
        assert summary["failed"] == 1
        assert summary["mean_final_test_accuracy"] is None
        assert "warning" in summary
        trial = read_json(tmp_path / "out" / "trial_000.json")
        assert trial["status"] == "failed"
        assert "BudgetExceededError" in trial["error"]
        assert len(trial["per_iteration"]) == 1

    def test_record_cache_is_saved_when_a_trial_raises(self, tmp_path, monkeypatch):
        class Crashing(ScriptedBackend):
            calls = 0

            def complete(self, request):
                self.calls += 1
                if self.calls > 5:
                    raise RuntimeError("worker crashed")
                return super().complete(request)

        monkeypatch.setattr(cli, "ScriptedBackend", Crashing)
        cache_path = tmp_path / "cache.jsonl"
        config = tiny_config(
            backend={"cache_mode": "record", "cache_path": str(cache_path), "max_inflight": 4},
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(RuntimeError, match="worker crashed"):
            run_experiment(config, echo=lambda *a: None)
        saved = ReplayCache.load(cache_path)
        assert len(saved) > 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.jsonl", "out"]


class TestRunSweep:
    def test_sweep_layout_and_ordering(self, tmp_path):
        config = tiny_config(
            run={"total_iterations": 2, "batch_size": 3, "train_size": 10, "generation": GRADIENT_GENERATION},
            trials=1,
            output_dir=str(tmp_path / "sweep"),
            sweep={"axis": "batch_size", "values": [4, 2, 3]},
        )
        rows = run_sweep(config, echo=lambda *a: None)
        assert [row["value"] for row in rows] == [2.0, 3.0, 4.0]
        for label in ("2", "3", "4"):
            assert (tmp_path / "sweep" / f"batch_size={label}" / "summary.json").exists()
        csv_lines = (tmp_path / "sweep" / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "axis_value,mean_final_test_accuracy,std_final_test_accuracy"
        assert [line.split(",")[0] for line in csv_lines[1:]] == ["2", "3", "4"]
        sweep_summary = read_json(tmp_path / "sweep" / "sweep_summary.json")
        assert sweep_summary["axis"] == "batch_size"
        assert len(sweep_summary["rows"]) == 3

    def test_singleton_sweep_matches_plain_run(self, tmp_path):
        run_experiment(
            tiny_config(run={"total_iterations": 2, "batch_size": 4, "train_size": 10,
                             "generation": GRADIENT_GENERATION},
                        output_dir=str(tmp_path / "plain")),
            echo=lambda *a: None,
        )
        run_sweep(
            tiny_config(
                run={"total_iterations": 2, "batch_size": 3, "train_size": 10, "generation": GRADIENT_GENERATION},
                output_dir=str(tmp_path / "swept"),
                sweep={"axis": "batch_size", "values": [4]},
            ),
            echo=lambda *a: None,
        )
        assert (tmp_path / "plain" / "trial_000.json").read_bytes() == (
            tmp_path / "swept" / "batch_size=4" / "trial_000.json"
        ).read_bytes()

    def test_train_size_sweep_past_the_train_split_is_refused(self, tmp_path):
        # The run clips its pool to the 12-example train split, so sizes
        # past it would all run the same trial.
        config = tiny_config(
            run={"total_iterations": 1, "batch_size": 3, "generation": GRADIENT_GENERATION},
            output_dir=str(tmp_path / "sweep"),
            sweep={"axis": "train_size", "values": [6, 12, 20]},
        )
        with pytest.raises(ConfigError, match=r"sweep.values\[2\]: train_size 20 .* 12 examples"):
            run_sweep(config, echo=lambda *a: None)
        assert not (tmp_path / "sweep").exists()
        config = dataclasses.replace(config, sweep=dataclasses.replace(config.sweep, values=(6.0, 12.0)))
        rows = run_sweep(config, echo=lambda *a: None)
        assert [row["completed"] for row in rows] == [1, 1]

    def test_plain_run_clips_train_size_to_the_split(self, tmp_path):
        trials = []
        for size in (12, 400):
            out = tmp_path / str(size)
            run = {"total_iterations": 1, "batch_size": 3, "train_size": size, "generation": GRADIENT_GENERATION}
            run_experiment(tiny_config(run=run, output_dir=str(out)), echo=lambda *a: None)
            trials.append((out / "trial_000.json").read_bytes())
        assert json.loads(trials[0])["status"] == "complete"
        assert trials[0] == trials[1]

    def test_sweep_requires_section(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep"):
            run_sweep(tiny_config(output_dir=str(tmp_path)), echo=lambda *a: None)


class TestMain:
    RUN_FLAGS = [
        "--iterations", "2", "--batch-size", "3", "--train-size", "10",
        "--candidates", "2", "--block-tokens", "8", "--max-total-tokens", "8",
    ]

    def test_run_exit_zero(self, tmp_path, capsys):
        code = main(["run", "--output-dir", str(tmp_path / "out"), *self.RUN_FLAGS])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert "summary:" in capsys.readouterr().out

    def test_flags_override_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text("trials: 2\nrun:\n  total_iterations: 1\n", encoding="utf-8")
        code = main(
            [
                "run", "--config", str(config_path), "--trials", "1",
                "--output-dir", str(tmp_path / "out"), *self.RUN_FLAGS[2:],
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "trial_000.json").exists()
        assert not (tmp_path / "out" / "trial_001.json").exists()

    def test_max_inflight_flag_overrides_config(self, tmp_path, capsys, monkeypatch):
        seen = []
        real = cli.run_experiment
        monkeypatch.setattr(
            cli, "run_experiment", lambda config: seen.append(config.backend.max_inflight) or real(config)
        )
        config_path = tmp_path / "config.yaml"
        config_path.write_text("backend:\n  max_inflight: 3\n", encoding="utf-8")
        code = main(
            [
                "run", "--config", str(config_path), "--max-inflight", "1",
                "--output-dir", str(tmp_path / "out"), *self.RUN_FLAGS,
            ]
        )
        assert code == 0
        assert seen == [1]

    @pytest.mark.parametrize("flag, value", [("--patience", "7"), ("--temperature", "1.5")])
    def test_flag_that_contradicts_the_preset_exits_two(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "out")
        assert main(["run", "--output-dir", out, flag, value, *self.RUN_FLAGS]) == 2
        assert "preset H0" in capsys.readouterr().err
        assert main(["run", "--output-dir", out, "--preset", "custom", flag, value, *self.RUN_FLAGS]) == 0

    def test_failed_trial_exit_one(self, tmp_path, capsys):
        code = main(
            ["run", "--output-dir", str(tmp_path / "out"), "--max-gateway-calls", "8", *self.RUN_FLAGS]
        )
        assert code == 1

    def test_config_error_exit_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.yaml")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_recording_into_a_missing_directory_exits_two_before_any_call(self, tmp_path, capsys, monkeypatch):
        """The recording is saved only after the last trial, so a path it
        could not be saved to is refused before the first call."""
        monkeypatch.setattr(cli, "build_backend", lambda *_: pytest.fail("the backend was built"))
        cache_path = str(tmp_path / "missing" / "c.jsonl")
        argv = ["run", "--output-dir", str(tmp_path / "out"), "--cache-mode", "record", "--cache-path", cache_path]
        assert main([*argv, *self.RUN_FLAGS]) == 2
        err = capsys.readouterr().err
        assert "backend.cache_path: record needs an existing directory" in err
        assert cache_path in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "refusal, message",
        [
            (["--cache-mode", "record", "--cache-path", "{tmp}/missing/c.jsonl"], "record needs an existing directory"),
            (["--task", "mpqa"], "needs train_path, holdout_path and test_path"),
            (["--preset", "custom", "--temperature", "nan"], "run.generation.temperature: expected a finite number"),
            (["--preset", "custom", "--temperature", "inf"], "run.generation.temperature: expected a finite number"),
        ],
        ids=["record-into-a-missing-directory", "preset-without-dataset-paths", "nan-temperature", "inf-temperature"],
    )
    def test_a_refused_config_leaves_no_output_directory(self, tmp_path, capsys, command, refusal, message):
        sweep = ["--axis", "alpha", "--values", "0.3,0.6"] if command == "sweep" else []
        refusal = [arg.format(tmp=tmp_path) for arg in refusal]
        assert main([command, "--output-dir", str(tmp_path / "out"), *sweep, *self.RUN_FLAGS, *refusal]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "variance"])
    def test_an_output_dir_that_is_a_file_exits_two(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_text("a file\n", encoding="utf-8")
        flags = {
            "run": self.RUN_FLAGS,
            "sweep": ["--axis", "alpha", "--values", "0.3", *self.RUN_FLAGS],
            "variance": ["--alphas", "0.5", "--horizons", "2", "--trials", "200"],
        }
        assert main([command, "--output-dir", str(out), *flags[command]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before a sweep announces its first point
        assert captured.err.startswith("error: output_dir: ")
        assert captured.err.rstrip().endswith(repr(str(out)))  # the path given, not a point's sub-directory
        assert out.read_text(encoding="utf-8") == "a file\n"

    @pytest.mark.parametrize("dotted", sorted(REMOVED_FIELDS))
    def test_a_config_that_sets_a_removed_field_exits_two(self, tmp_path, capsys, dotted):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(REMOVED_FIELDS[dotted]), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--output-dir", str(tmp_path / "out")]) == 2
        assert f"error: {dotted}: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["dataset", "cache"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_an_unreadable_input_file_exits_two(self, tmp_path, capsys, which, kind):
        bad = tmp_path / "bad.jsonl"
        if kind == "directory":
            bad.mkdir()
        elif kind == "not-utf8":
            bad.write_bytes(b'{"text": "caf\xe9", "label": "a"}\n')
        if which == "dataset":
            for split in ("holdout", "test"):
                rows = [{"text": f"{split} {i}", "label": "ab"[i % 2]} for i in range(4)]
                (tmp_path / f"{split}.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
            source = [
                "--task", "custom", "--initial-prompt", "x", "--labels", "a,b", "--train-path", str(bad),
                "--holdout-path", str(tmp_path / "holdout.jsonl"), "--test-path", str(tmp_path / "test.jsonl"),
            ]
        else:
            source = ["--cache-mode", "replay", "--cache-path", str(bad)]
        assert main(["run", "--output-dir", str(tmp_path / "out"), *self.RUN_FLAGS, *source]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert which == "dataset" or "error: backend.cache_path: " in err
        assert not (tmp_path / "out").exists()

    def test_labels_that_cannot_be_told_apart_exit_two(self, tmp_path, capsys):
        """Every answer would parse to neither label and be scored wrong."""
        paths = []
        for split in ("train", "holdout", "test"):
            path = tmp_path / f"{split}.jsonl"
            path.write_text(json.dumps({"text": split, "label": "a"}) + "\n", encoding="utf-8")
            paths += [f"--{split}-path", str(path)]
        argv = ["run", "--output-dir", str(tmp_path / "out"), "--task", "custom", "--initial-prompt", "x"]
        assert main([*argv, "--labels", "a,a", *paths, *self.RUN_FLAGS]) == 2
        assert "error: task: label_set: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document", ["[]\n", "false\n"])
    def test_a_config_file_that_is_not_a_mapping_exits_two(self, tmp_path, capsys, document):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(document, encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--output-dir", str(tmp_path / "out")]) == 2
        assert "config: expected a mapping" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_an_empty_config_file_runs_the_defaults(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text("", encoding="utf-8")
        code = main(["run", "--config", str(config_path), "--output-dir", str(tmp_path / "out"), *self.RUN_FLAGS])
        assert code == 0
        assert (tmp_path / "out" / "trial_000.json").exists()

    def test_sweep_command(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--axis", "batch_size", "--values", "2,4", "--mode", "case2_gradient",
                "--output-dir", str(tmp_path / "sweep"), *self.RUN_FLAGS,
            ]
        )
        assert code == 0
        assert (tmp_path / "sweep" / "sweep.csv").exists()

    def test_variance_command(self, tmp_path, capsys):
        code = main(
            [
                "variance", "--alphas", "0.5,0.9", "--horizons", "1,3",
                "--trials", "2000", "--output-dir", str(tmp_path / "var"),
            ]
        )
        assert code == 0
        assert (tmp_path / "var" / "variance.csv").exists()
        summary = read_json(tmp_path / "var" / "variance_summary.json")
        assert summary["cells"] == 4

    def test_variance_rejects_bad_axis_list(self, tmp_path, capsys):
        out = tmp_path / "var"
        for flags, message in (
            (["--alphas", ",,", "--trials", "10"], "error: alphas and horizons must be nonempty"),
            (["--trials", "0"], "error: trials must be >= 2, got 0"),
            # One trial has no standard error, so every cell would be flagged.
            (["--trials", "1"], "error: trials must be >= 2, got 1"),
            # A NaN sigma would write a report of NaN, which is not JSON.
            (["--sigma", "nan", "--trials", "10"], "error: sigma must be finite and > 0, got nan"),
            (["--sigma", "inf", "--trials", "10"], "error: sigma must be finite and > 0, got inf"),
        ):
            assert main(["variance", *flags, "--output-dir", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_variance_refuses_a_fractional_horizon(self, tmp_path, capsys):
        out = tmp_path / "var"
        assert main(["variance", "--horizons", "1,2.5", "--trials", "10", "--output-dir", str(out)]) == 2
        assert "error: horizons: " in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_values_that_are_not_numbers_exit_two(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--axis", "alpha", "--values", "0.1,abc", "--output-dir", str(out)]) == 2
        assert "error: sweep.values: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            ("alpha", "0.5,1.5", "sweep.values[1]: alpha must be in [0, 1], got 1.5"),
            ("batch_size", "2,0", "sweep.values[1]: batch_size must be >= 1, got 0"),
        ],
        ids=["alpha", "batch_size"],
    )
    def test_sweep_value_outside_its_fields_domain_exits_two_before_any_point(
        self, tmp_path, capsys, axis, values, message
    ):
        out = tmp_path / "sweep"
        mode = ["--mode", "case2_gradient"] if axis == "batch_size" else []
        argv = ["sweep", "--axis", axis, "--values", values, *mode, "--output-dir", str(out)]
        assert main([*argv, "--iterations", "1", "--candidates", "2", "--trials", "1"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_record_then_replay_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        cache_path = tmp_path / "cache.jsonl"
        record = main(
            [
                "run", "--output-dir", str(tmp_path / "record"), "--cache-mode", "record",
                "--cache-path", str(cache_path), *self.RUN_FLAGS,
            ]
        )
        assert record == 0
        assert cache_path.exists()
        # A replay answers from the file alone: the script it would fall back on is poisoned.
        monkeypatch.setattr(cli, "ScriptedBackend", lambda **_: ScriptedBackend(default_response=" poisoned"))
        replay = main(
            [
                "run", "--output-dir", str(tmp_path / "replay"),
                "--cache-mode", "replay", "--cache-path", str(cache_path), *self.RUN_FLAGS,
            ]
        )
        assert replay == 0
        assert (tmp_path / "record" / "trial_000.json").read_bytes() == (
            tmp_path / "replay" / "trial_000.json"
        ).read_bytes()

    def test_module_entry_point(self, tmp_path):
        # The child imports the package the tests import, installed or not.
        source = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [
                sys.executable, "-m", "tsgdm.cli", "variance",
                "--alphas", "0.5", "--horizons", "2", "--trials", "500",
                "--output-dir", str(tmp_path / "var"),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "var" / "variance.csv").exists()
