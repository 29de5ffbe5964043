"""Config parsing, experiment driver, sweeps, and the command line."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import tsgdm.cli as cli
from tsgdm import (
    ConfigError,
    HypothesisPreset,
    ReplayCache,
    ScriptedBackend,
    UnknownFieldError,
)
from tsgdm.cli import (
    ExperimentConfig,
    build_cache,
    build_task,
    main,
    parse_config,
    parse_config_data,
    run_experiment,
    run_sweep,
)


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

    def test_json_document_accepted(self):
        config = parse_config('{"run": {"batch_size": 5}, "trials": 3}')
        assert config.run.batch_size == 5
        assert config.trials == 3

    def test_domain_error_is_wrapped_with_path(self):
        with pytest.raises(ConfigError, match="generation") as excinfo:
            parse_config("run:\n  generation:\n    alpha: 1.5\n")
        assert "alpha" in str(excinfo.value)

    def test_unknown_field_rejected(self):
        with pytest.raises(UnknownFieldError, match="run.blocksize"):
            parse_config("run:\n  blocksize: 3\n")
        with pytest.raises(UnknownFieldError, match="config.whatever"):
            parse_config("whatever: 1\n")

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

    def test_scripted_rules_parse(self):
        config = parse_config(
            "backend:\n"
            "  scripted_rules:\n"
            "    - pattern: ping\n"
            "      response: ' pong'\n"
            "      finish_reason: length\n"
            "  scripted_default_response: ' nothing'\n"
        )
        (rule,) = config.backend.scripted_rules
        assert rule.pattern == "ping"
        assert rule.response == " pong"
        assert rule.exact is False
        assert rule.finish_reason.value == "length"
        assert config.backend.scripted_default_response == " nothing"

    def test_max_inflight(self):
        assert parse_config("").backend.max_inflight == 8
        assert parse_config("backend:\n  max_inflight: 1\n").backend.max_inflight == 1
        with pytest.raises(ConfigError, match="backend.max_inflight"):
            parse_config("backend:\n  max_inflight: 0\n")
        with pytest.raises(ConfigError, match="backend.max_inflight"):
            parse_config("backend:\n  max_inflight: many\n")

    def test_scripted_rules_validation(self):
        with pytest.raises(ConfigError, match="pattern and response"):
            parse_config("backend:\n  scripted_rules:\n    - pattern: x\n")
        with pytest.raises(ConfigError, match="scripted_rules"):
            parse_config("backend:\n  scripted_rules:\n    - pattern: x\n      response: y\n      finish_reason: maybe\n")


class TestParseSweep:
    def test_valid_sweep(self):
        config = parse_config("sweep:\n  axis: batch_size\n  values: [4, 2]\n")
        assert config.sweep.axis.value == "batch_size"
        assert config.sweep.values == (4.0, 2.0)

    def test_values_must_be_nonempty(self):
        with pytest.raises(ConfigError, match="values"):
            parse_config("sweep:\n  axis: alpha\n  values: []\n")

    def test_size_axes_need_integers(self):
        with pytest.raises(ConfigError, match="integers"):
            parse_config("sweep:\n  axis: batch_size\n  values: [2.5]\n")

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
            def complete(self, request):
                if len(self.call_log) >= 5:
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
                             "generation": {"candidates": 2, "block_tokens": 8, "max_total_tokens": 8}},
                        output_dir=str(tmp_path / "plain")),
            echo=lambda *a: None,
        )
        run_sweep(
            tiny_config(
                output_dir=str(tmp_path / "swept"),
                sweep={"axis": "batch_size", "values": [4]},
            ),
            echo=lambda *a: None,
        )
        assert (tmp_path / "plain" / "trial_000.json").read_bytes() == (
            tmp_path / "swept" / "batch_size=4" / "trial_000.json"
        ).read_bytes()

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

    def test_failed_trial_exit_one(self, tmp_path, capsys):
        code = main(
            ["run", "--output-dir", str(tmp_path / "out"), "--max-gateway-calls", "8", *self.RUN_FLAGS]
        )
        assert code == 1

    def test_config_error_exit_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.yaml")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_command(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--axis", "batch_size", "--values", "2,4",
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

    def test_variance_rejects_bad_axis_list(self, capsys):
        assert main(["variance", "--alphas", ",,", "--trials", "10"]) == 2

    def test_record_then_replay_is_byte_identical(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.jsonl"
        record = main(
            [
                "run", "--output-dir", str(tmp_path / "record"), "--cache-mode", "record",
                "--cache-path", str(cache_path), *self.RUN_FLAGS,
            ]
        )
        assert record == 0
        assert cache_path.exists()
        replay_config = tmp_path / "replay.yaml"
        replay_config.write_text(
            "backend:\n"
            "  scripted_rules: []\n"
            "  scripted_default_response: ' poisoned'\n",
            encoding="utf-8",
        )
        replay = main(
            [
                "run", "--config", str(replay_config), "--output-dir", str(tmp_path / "replay"),
                "--cache-mode", "replay", "--cache-path", str(cache_path), *self.RUN_FLAGS,
            ]
        )
        assert replay == 0
        assert (tmp_path / "record" / "trial_000.json").read_bytes() == (
            tmp_path / "replay" / "trial_000.json"
        ).read_bytes()

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "tsgdm.cli", "variance",
                "--alphas", "0.5", "--horizons", "2", "--trials", "500",
                "--output-dir", str(tmp_path / "var"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "var" / "variance.csv").exists()
