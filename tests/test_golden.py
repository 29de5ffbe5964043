"""Golden equivalence fixtures: pinned hashes of what a seeded trial writes
and sends.

Each configuration of the matrix (momentum and vanilla in case1 and case2,
plus the concat baseline, at k=1 and k=4 candidates) runs one CLI trial
against the benchmark's seeded sampling backend. The sha256 of the trial
file is pinned at 1 and at 8 calls in flight, and so is the sha256 of the
sequential call log: each call's tag, prompt, budget, temperature and
sample seed. A refactor that keeps these hashes keeps every request and
every result. A pin that moves is an intended change to the outputs, and
the change log says why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from conftest import run_trial, trial_doc

_SPEC = importlib.util.spec_from_file_location(
    "golden_sampling_backend", Path(__file__).resolve().parents[1] / "perfbench" / "sampling_backend.py"
)
sampling_backend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sampling_backend)

MODEL_SEED = 3

# (rule, k): (sha256 of the trial file, sha256 of the width-1 call log)
PINS = {
    ("concat", 1): ("2007b9750e535621f97626ae1c41d1787db40095349ebae3299c80e73eab43a5", "3b25f86dc2b68ca5bcfa390448b95ddf37390cca23d28539d49d842929c92357"),
    ("concat", 4): ("5312a5278096a608c96e063e27ec26810126607385b38c81e726428816194ffd", "89ee8c36f6bc0f75c3018421f33d14eb198d5b4d80cf770b80ac457ef1c2b2c0"),
    ("momentum-case1", 1): ("437ff470d48871c7aa08b065a01b0bf4b0dcc17328bdea85f6d54b70888c25d4", "b092cbff17de188ffe2a34a4434b97c54d56c97c8719f9dbce304aa2bd30c498"),
    ("momentum-case1", 4): ("0c5728b7faf44f7f388b50ed4c670772ceaa9605026c50116c8ecd134118f99f", "86d298d1565a52130d270a5576863150939d565685dc97de91314f9055a90a76"),
    ("momentum-case2", 1): ("0e3bca05411a13cc999934ca205cece7b80489812df1e20fa5726b91a0d35e40", "5e79fea2035c2f2873f0b273f76b5ccb016142c690763f305430631452cd8493"),
    ("momentum-case2", 4): ("5d97a83ed2dca511f16b0fec964bf552db47ee3259a7cec9080a7df117445433", "d3a4d45fec4d7378f94eb05c815c057a477b9193918030518adec317a1e6f452"),
    ("vanilla-case1", 1): ("e56b57754de0793d5d231f55fff4247f4e92d978e14d11f43cd64aefad4bb51e", "61d80c3b391f19d7163cb3b6ef732146ef22d8adb82792946fab55acc42aac03"),
    ("vanilla-case1", 4): ("6feac8cc15019275f73235c3155ec020630897a6b818380ed4bf213448da3169", "aa3e43e07f8906e8204b5d653be88c083bc21c6852ca7f4820331689ccfa1708"),
    ("vanilla-case2", 1): ("c10e0e16fa1a3bc9be8bc199958b2a05bac9a58fcac7117f1b2d0d99acceea2e", "63de0bbe44de52b13f8a7c942fe656368c77ce705f230585295f86c4f2bc7da9"),
    ("vanilla-case2", 4): ("20137559a89956612c4685799a5700b385cfda271c1f24e7fa6e30e860c9c03a", "26806730fed2d2d153fde92d118bad419e9159ef4ae8093ecb898b0772e3ba34"),
}


class LoggingModel:
    """The sampling backend, logging what each call asks for."""

    def __init__(self) -> None:
        self.inner = sampling_backend.SamplingBackend(MODEL_SEED)
        self.log: list[list] = []

    def complete(self, request):
        self.log.append(
            [request.request_tag, request.prompt_text, request.max_new_tokens, request.temperature, request.sample_seed]
        )
        return self.inner.complete(request)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("rule, k", sorted(PINS), ids=[f"{rule}-k{k}" for rule, k in sorted(PINS)])
def test_trial_file_and_call_log_are_pinned(tmp_path, monkeypatch, rule, k):
    trial_pin, log_pin = PINS[rule, k]
    model = LoggingModel()
    sequential = run_trial(tmp_path, "w1", trial_doc(rule, 1, k), monkeypatch, model)
    concurrent = run_trial(
        tmp_path, "w8", trial_doc(rule, 8, k), monkeypatch, sampling_backend.SamplingBackend(MODEL_SEED)
    )
    log = json.dumps(model.log, ensure_ascii=False).encode("utf-8")
    assert (sha256(sequential), sha256(concurrent), sha256(log)) == (trial_pin, trial_pin, log_pin)


def test_record_then_replay_is_pinned(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache.jsonl")
    recorded = run_trial(
        tmp_path, "record", trial_doc("momentum-case2", 8, 4, cache_mode="record", cache_path=cache),
        monkeypatch, sampling_backend.SamplingBackend(MODEL_SEED),
    )
    untouched = LoggingModel()
    replayed = run_trial(
        tmp_path, "replay", trial_doc("momentum-case2", 8, 4, cache_mode="replay", cache_path=cache),
        monkeypatch, untouched,
    )
    assert sha256(recorded) == sha256(replayed) == PINS["momentum-case2", 4][0]
    assert untouched.log == []
