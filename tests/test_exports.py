"""The public surface: ``from tsgdm import *`` works, ``__all__`` names
each export once, the names the one update rule, the one scoring path and
the one backend settings class replaced stay gone, so do the history and
weight wrappers, the record's unread score, the scripted call log, the
round helpers that ``_Round`` folded in, the request builders and the
seed-stamping view it took over, the enums that restated the config's
cache mode and scoring rule, the scorer that copied the task's scoring
rule, two error types nothing could raise, four parameters no caller
set and the cache's second way to answer, a record holds only its
instruction and analysis, the prompts and the offline script are no
config fields, and README's code runs."""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import tsgdm
import tsgdm.config
import tsgdm.errors
import tsgdm.gateway
import tsgdm.optimizer
import tsgdm.task
import tsgdm.templates

REMOVED = {
    tsgdm.optimizer: (
        "momentum_generate",
        "generate_vanilla",
        "_generate_blocks",
        "_momentum_maker",
        "_vanilla_maker",
        "_concat_maker",
        "update_mom",
        "update_vanilla",
        "update_concat",
        "_update",
        "_select_candidate",
        "ScoreFn",
        "OptimizerHistory",
        "WeightVector",
        "_Draft",
        "_Gate",
        "_maker",
        "_Candidates",
        "generate_candidate",
        "compute_textual_gradient",
        "concat_momentum_prompt",
        "_RunDraws",
    ),
    tsgdm.task: ("binding_from_preset", "score_prompts", "ScoreKind", "ScoreFunction", "predict"),
    tsgdm.task.TaskBinding: ("score_kind", "score_function"),
    tsgdm.gateway: ("RemoteConfig", "CacheMode"),
    tsgdm.gateway.ReplayCache: ("lookup", "record"),
    tsgdm.errors: ("EmptyHistoryError", "EmptyBatchError"),
    tsgdm.templates: ("has_placeholder",),
}


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from tsgdm import *", namespace)
    assert set(tsgdm.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(tsgdm.__all__) == len(set(tsgdm.__all__))


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in REMOVED.items() for name in names],
    ids=[f"{module.__name__}.{name}" for module, names in REMOVED.items() for name in names],
)
def test_removed_name_is_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(tsgdm, name)
    assert name not in tsgdm.__all__


def test_run_tsgd_takes_no_score_fn_or_rng():
    assert {"score_fn", "rng"}.isdisjoint(inspect.signature(tsgdm.run_tsgd).parameters)


@pytest.mark.parametrize(
    "function, name",
    [
        (tsgdm.ScriptedBackend, "default_finish_reason"),
        (tsgdm.synthetic_binding, "name"),
        (tsgdm.RemoteBackend, "backoff_base_s"),
        (tsgdm.ScriptRule, "exact"),
    ],
)
def test_a_parameter_no_caller_set_is_gone(function, name):
    assert name not in inspect.signature(function).parameters


def test_the_prompts_and_the_script_are_no_config_fields():
    """Each mode's rewrite prompt, the analysis prompt and the scripted
    backend's script are constants, not settings."""
    generation = [f.name for f in dataclasses.fields(tsgdm.GenerationParams)]
    assert [name for name in generation if name.endswith("_template")] == []
    backend = [f.name for f in dataclasses.fields(tsgdm.config.BackendSettings)]
    assert [name for name in backend if name.startswith("scripted_")] == []


def test_scripted_backend_keeps_no_call_log():
    assert not hasattr(tsgdm.ScriptedBackend(), "call_log")


def test_prompt_record_has_no_holdout_score():
    """A record is what later rounds read: the instruction and its analysis."""
    assert [f.name for f in dataclasses.fields(tsgdm.PromptRecord)] == ["prompt_text", "gradient_text"]


def test_readme_python_blocks_run():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
