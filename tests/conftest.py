"""Shared test helpers: scripted backends, canned score functions, and
one-trial CLI runs of each update rule."""

from __future__ import annotations

import pytest

import tsgdm.cli as cli
from tsgdm import ScriptRule, ScriptedBackend, synthetic_binding
from tsgdm.cli import parse_config_data, run_experiment


def make_marker_backend(extra_rules=()) -> ScriptedBackend:
    """Backend for the synthetic marker task: forward passes echo the marker
    word, refinement and analysis requests get canned instruction text."""
    rules = [
        ScriptRule("Batch results:", "The instruction ignores the marker word."),
        ScriptRule("carries marker blue", " blue"),
        ScriptRule("carries marker red", " red"),
        *extra_rules,
        ScriptRule("Improved instruction:", "Copy the marker word: blue or red."),
        ScriptRule("Improved version:", "Copy the marker word: blue or red."),
    ]
    return ScriptedBackend(rules=rules, default_response=" blue")


class SequenceScore:
    """Score function returning a fixed sequence, one value per call."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = []

    def __call__(self, prompt_text: str) -> float:
        self.calls.append(prompt_text)
        return self.values[len(self.calls) - 1]


class MappedScore:
    """Score function keyed on candidate text, with a call counter."""

    def __init__(self, mapping, default=0.0):
        self.mapping = dict(mapping)
        self.default = default
        self.calls = []

    def __call__(self, prompt_text: str) -> float:
        self.calls.append(prompt_text)
        return self.mapping.get(prompt_text, self.default)


@pytest.fixture
def tiny_task():
    return synthetic_binding(n_train=12, n_holdout=6, n_test=6, seed=7)


# (generation mode, use_momentum); the concat baseline has its own mode.
UPDATE_RULES = {
    "vanilla-case1": ("case1_meta_prompt", False),
    "vanilla-case2": ("case2_gradient", False),
    "momentum-case1": ("case1_meta_prompt", True),
    "momentum-case2": ("case2_gradient", True),
    "concat": ("concat_baseline", True),
}


def trial_doc(rule: str, max_inflight: int, candidates: int = 5, **backend) -> dict:
    """A one-trial config of ``rule``: 3 iterations of ``candidates``
    candidates of up to 3 blocks, on a 12/6/6 synthetic task."""
    mode, momentum = UPDATE_RULES[rule]
    return {
        "run": {
            "total_iterations": 3,
            "batch_size": 4,
            "train_size": 12,
            "patience": 4,
            "hypothesis_preset": "custom",
            "use_momentum": momentum,
            "generation": {
                "alpha": 0.6,
                "candidates": candidates,
                "block_tokens": 10,
                "max_total_tokens": 30,
                "temperature": 0.7,
                "mode": mode,
            },
        },
        "task": {"synthetic_train": 12, "synthetic_holdout": 6, "synthetic_test": 6},
        "backend": {"max_inflight": max_inflight, **backend},
    }


def run_trial(tmp_path, name: str, doc: dict, monkeypatch, model=None) -> bytes:
    """Run the one-trial ``doc`` through ``run_experiment`` and return the
    trial file's bytes; ``model`` replaces the scripted backend."""
    if model is not None:
        monkeypatch.setattr(cli, "ScriptedBackend", lambda **_: model)
    config = parse_config_data({**doc, "output_dir": str(tmp_path / name)})
    run_experiment(config, echo=lambda *a: None)
    return (tmp_path / name / "trial_000.json").read_bytes()
