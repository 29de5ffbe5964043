"""Shared test helpers: scripted backends, a recorder of the requests a
backend is sent, scripted holdout scores, candidates written outside a run,
and one-trial CLI runs of each update rule."""

from __future__ import annotations

import dataclasses
import threading

import pytest

import tsgdm.cli as cli
from tsgdm import (
    CompletionRequest,
    CompletionResult,
    FinishReason,
    ScriptRule,
    ScriptedBackend,
    synthetic_binding,
)
from tsgdm.cli import parse_config_data, run_experiment
from tsgdm.optimizer import _Round


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


class Recorder:
    """Backend wrapper that appends each request to ``requests``, in the
    order the calls arrive, then asks ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[CompletionRequest] = []
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionResult:
        with self._lock:
            self.requests.append(request)
        return self.inner.complete(request)


class HoldoutHits:
    """Backend wrapper that scripts holdout scores. A greedy
    ``score/.../ex{i}`` pass answers right when ``i < hits[instruction]``
    and wrong otherwise, where the instruction is the forward prompt's
    first line and unlisted instructions get 0 hits; so a prompt with h
    hits scores h / |holdout|. Every other request goes to ``inner``."""

    def __init__(self, inner, task, hits=()):
        self.inner = inner
        self.holdout = task.holdout
        self.hits = dict(hits)

    def complete(self, request: CompletionRequest) -> CompletionResult:
        if request.temperature > 0.0 or not request.request_tag.startswith("score/"):
            return self.inner.complete(request)
        i = int(request.request_tag.rsplit("/ex", 1)[1])
        right = i < self.hits.get(request.prompt_text.split("\n", 1)[0], 0)
        text = f" {self.holdout[i].gold_label}" if right else " none"
        return CompletionResult(text=text, finish_reason=FinishReason.STOP)


def write_candidates(history, gen, backend, momentum=True, seed=0, js=(0,)) -> list:
    """Candidates ``js`` of the round over ``history``, written in that
    order by one ``_Round`` with no batch and no holdout; ``gen`` is
    widened to hold every index in ``js``."""
    if max(js) >= gen.candidates:
        gen = dataclasses.replace(gen, candidates=max(js) + 1)
    step = _Round(history, gen, momentum, seed, backend, synthetic_binding(n_holdout=0), ())
    return [step.write(j) for j in js]


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
