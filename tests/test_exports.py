"""The public surface: ``from tsgdm import *`` works, ``__all__`` names
each export once, and the names the one update rule replaced stay gone."""

from __future__ import annotations

import pytest

import tsgdm
import tsgdm.optimizer
import tsgdm.task

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
    ),
    tsgdm.task: ("binding_from_preset", "score_prompts"),
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
