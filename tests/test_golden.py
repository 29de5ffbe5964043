"""Golden equivalence fixtures: pinned hashes of what a seeded trial writes
and sends.

Each configuration of the matrix (momentum and vanilla in case1 and case2,
plus the concat baseline, at k=1 and k=4 candidates) runs one CLI trial
against the benchmark's seeded sampling backend. The sha256 of the trial
file is pinned at 1, 8, 16 and 24 calls in flight, and so is the sha256
of the sequential call log: each call's tag, prompt, budget, temperature
and sample seed. A refactor that keeps these hashes keeps every request and
every result. A pin that moves is an intended change to the outputs, and
the change log says why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from conftest import Recorder, run_trial, trial_doc

_SPEC = importlib.util.spec_from_file_location(
    "golden_sampling_backend", Path(__file__).resolve().parents[1] / "perfbench" / "sampling_backend.py"
)
sampling_backend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sampling_backend)

MODEL_SEED = 3

# (rule, k): (sha256 of the trial file, sha256 of the width-1 call log)
PINS = {
    ("concat", 1): ("23f9f32183b4d36a41e88720748d64f4e8c133c5cce430704d4fe425df7fdadb", "56795449451f0ea11750fd328bb329d037a6f3cc4f266103ce45ccfe116ceeb4"),
    ("concat", 4): ("2ff0694e0e9d48add20a31a34e2e0f627deac85915eb990240e9dca56f5074fe", "08d62c3a6af49e1f785bcd65c0aa85ccb3356fb851542e388f5bd80629d1e665"),
    ("momentum-case1", 1): ("d3e0b5a47a9f07824f4e55f840e9bf999348fe5594c568d8b3434675b71e635d", "a3f1e49113bf8b0f3fdb05b278e847b35f2ec849786e4e9aa31645e822f4f7e5"),
    ("momentum-case1", 4): ("11d0d6d78eefa06fde6a8bb683cbc32155edc577d75ff8c445d3342af27e0536", "dfff36a553e181854bff9e927cbcfce94eea757e86f951f0b996439c1c3a539c"),
    ("momentum-case2", 1): ("0e3bca05411a13cc999934ca205cece7b80489812df1e20fa5726b91a0d35e40", "5e79fea2035c2f2873f0b273f76b5ccb016142c690763f305430631452cd8493"),
    ("momentum-case2", 4): ("5d97a83ed2dca511f16b0fec964bf552db47ee3259a7cec9080a7df117445433", "6b29bfdbe20d7e817b7e004b4c88039fe36be1c9bb743c099803596edd327c9c"),
    ("vanilla-case1", 1): ("8c2fac1ee4ed04ce93047dd68bd008f922731ced90fcbfe38b7f2dc44abb7f37", "d46d3d9f56929b9c4b0a26a4cbfd87c674b2c9f469b827cf2670eba8a6bb515b"),
    ("vanilla-case1", 4): ("1c592f68c03efa2f9f4c3c0ce6b37dfe8d57098ac03639fab43a9101065a7fba", "ed47bd22bfb7c67fa75c625293b4adf99628ac3f145f8222f05a083d0dfc8a4c"),
    ("vanilla-case2", 1): ("c10e0e16fa1a3bc9be8bc199958b2a05bac9a58fcac7117f1b2d0d99acceea2e", "63de0bbe44de52b13f8a7c942fe656368c77ce705f230585295f86c4f2bc7da9"),
    ("vanilla-case2", 4): ("20137559a89956612c4685799a5700b385cfda271c1f24e7fa6e30e860c9c03a", "26806730fed2d2d153fde92d118bad419e9159ef4ae8093ecb898b0772e3ba34"),
}


def logging_model() -> Recorder:
    """The sampling backend, recording what each call asks for."""
    return Recorder(sampling_backend.SamplingBackend(MODEL_SEED))


def call_log(model: Recorder) -> bytes:
    """Each call's tag, prompt, budget, temperature and sample seed."""
    log = [[r.request_tag, r.prompt_text, r.max_new_tokens, r.temperature, r.sample_seed] for r in model.requests]
    return json.dumps(log, ensure_ascii=False).encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("rule, k", sorted(PINS), ids=[f"{rule}-k{k}" for rule, k in sorted(PINS)])
def test_trial_file_and_call_log_are_pinned(tmp_path, monkeypatch, rule, k):
    trial_pin, log_pin = PINS[rule, k]
    model = logging_model()
    trials = [sha256(run_trial(tmp_path, "w1", trial_doc(rule, 1, k), monkeypatch, model))]
    for width in (8, 16, 24):
        concurrent = sampling_backend.SamplingBackend(MODEL_SEED)
        trials.append(sha256(run_trial(tmp_path, f"w{width}", trial_doc(rule, width, k), monkeypatch, concurrent)))
    assert (trials, sha256(call_log(model))) == ([trial_pin] * 4, log_pin)


def test_record_then_replay_is_pinned(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache.jsonl")
    recorded = run_trial(
        tmp_path, "record", trial_doc("momentum-case2", 8, 4, cache_mode="record", cache_path=cache),
        monkeypatch, sampling_backend.SamplingBackend(MODEL_SEED),
    )
    untouched = logging_model()
    replayed = run_trial(
        tmp_path, "replay", trial_doc("momentum-case2", 8, 4, cache_mode="replay", cache_path=cache),
        monkeypatch, untouched,
    )
    assert sha256(recorded) == sha256(replayed) == PINS["momentum-case2", 4][0]
    assert untouched.requests == []
