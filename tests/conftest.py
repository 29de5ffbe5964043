"""Shared test helpers: scripted backends and canned score functions."""

from __future__ import annotations

import pytest

from tsgdm import ScriptRule, ScriptedBackend, synthetic_binding


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
