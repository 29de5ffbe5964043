"""Task harness: datasets, forward passes, and prompt scoring.

A task binds labeled train/holdout/test splits to an initial instruction and
a scoring rule. Classification tasks score by parsing exactly one label out
of the completion; free-form tasks score by normalized exact match, with a
last-number comparison when the gold answer is numeric.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .errors import DomainError, EmptySetError, LabelError, ParseError, SizeError
from .gateway import SEQUENTIAL, Backend, CallPool, CompletionRequest
from .rng import STREAM_TASK, RandomStream, substream
from .templates import FORWARD_TEMPLATE, render_forward

# Decoding settings for every forward pass: greedy, short budget.
EVAL_MAX_TOKENS = 16
EVAL_TEMPERATURE = 0.0

_NON_ALNUM_RE = re.compile(r"[^0-9a-z]+")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


@dataclass(frozen=True)
class LabeledExample:
    """One dataset row."""

    input_text: str
    gold_label: str


class ScoreKind(str, Enum):
    CLASSIFICATION_ACCURACY = "classification_accuracy"
    EXACT_MATCH = "exact_match"


def normalize_text(text: str) -> str:
    """Lowercase, fold punctuation to spaces, collapse runs of whitespace."""
    return _NON_ALNUM_RE.sub(" ", text.lower()).strip()


def parse_label(completion: str, label_set: Sequence[str]) -> str | None:
    """Map a raw completion onto the label set.

    A label counts as present when its normalized form occurs as a substring
    of the normalized completion. Exactly one present label parses; zero or
    several present labels return None (unmatched).
    """
    haystack = normalize_text(completion)
    matches = []
    for label in label_set:
        needle = normalize_text(label)
        if needle and needle in haystack:
            matches.append(label)
    return matches[0] if len(matches) == 1 else None


def extract_final_number(text: str) -> str | None:
    """Last number in the text, thousands separators stripped."""
    found = _NUMBER_RE.findall(text.replace(",", ""))
    return found[-1] if found else None


def exact_match_correct(completion: str, gold_label: str) -> bool:
    """Normalized equality; numeric gold answers compare by final number."""
    gold_number = extract_final_number(gold_label)
    if gold_number is not None and normalize_text(gold_label) == normalize_text(gold_number):
        predicted = extract_final_number(completion)
        return predicted is not None and float(predicted) == float(gold_number)
    return normalize_text(completion) == normalize_text(gold_label)


def load_dataset(path: str | Path, label_set: Sequence[str] = ()) -> list[LabeledExample]:
    """Read line-delimited JSON records with ``text`` and ``label`` fields.

    Blank lines are skipped. Malformed lines raise :class:`ParseError` with
    the line number; labels outside a nonempty ``label_set`` raise
    :class:`LabelError`.
    """
    examples: list[LabeledExample] = []
    allowed = set(label_set)
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        if not isinstance(row, dict) or "text" not in row or "label" not in row:
            raise ParseError(f"{path}:{lineno}: expected an object with 'text' and 'label'")
        label = str(row["label"])
        if allowed and label not in allowed:
            raise LabelError(f"{path}:{lineno}: label {label!r} not in {sorted(allowed)}")
        examples.append(LabeledExample(input_text=str(row["text"]), gold_label=label))
    return examples


def sample_batch(
    pool: Sequence[LabeledExample],
    batch_size: int,
    rng: RandomStream,
    with_replacement: bool = False,
) -> list[LabeledExample]:
    """Draw ``batch_size`` examples from ``pool``.

    Without replacement the batch is a uniform subset (a full shuffle when
    batch_size equals the pool size) and oversampling raises
    :class:`SizeError`.
    """
    if batch_size < 1:
        raise DomainError(f"batch_size must be >= 1, got {batch_size}")
    if not pool:
        raise EmptySetError("cannot sample from an empty pool")
    if with_replacement:
        indices = rng.integers(0, len(pool), size=batch_size)
    else:
        if batch_size > len(pool):
            raise SizeError(f"batch of {batch_size} from pool of {len(pool)} without replacement")
        indices = rng.permutation(len(pool))[:batch_size]
    return [pool[int(i)] for i in indices]


def predict(
    lm: Backend,
    prompt_text: str,
    input_text: str,
    label_set: Sequence[str] = (),
    forward_template: str = FORWARD_TEMPLATE,
    tag: str = "predict",
) -> tuple[str, str | None]:
    """One greedy forward pass; returns (raw completion, parsed label or None)."""
    request = CompletionRequest(
        prompt_text=render_forward(prompt_text, input_text, forward_template),
        max_new_tokens=EVAL_MAX_TOKENS,
        temperature=EVAL_TEMPERATURE,
        request_tag=tag,
    )
    result = lm.complete(request)
    return result.text, parse_label(result.text, label_set)


def score_prompt(
    prompt_text: str,
    examples: Sequence[LabeledExample],
    lm: Backend,
    kind: ScoreKind = ScoreKind.CLASSIFICATION_ACCURACY,
    label_set: Sequence[str] = (),
    forward_template: str = FORWARD_TEMPLATE,
    tag: str = "score",
    pool: CallPool = SEQUENTIAL,
) -> float:
    """Mean per-example correctness of ``prompt_text`` over ``examples``.

    Classification counts a parsed label equal to the gold label; an
    unmatched completion is simply wrong. Scoring zero examples raises
    :class:`EmptySetError` rather than returning a fake 0.0. The forward
    passes run through ``pool``.
    """
    if not examples:
        raise EmptySetError("cannot score a prompt over zero examples")
    kind = ScoreKind(kind)

    def forward(indexed: tuple[int, LabeledExample]) -> tuple[str, str | None]:
        i, example = indexed
        return predict(lm, prompt_text, example.input_text, label_set, forward_template, tag=f"{tag}/ex{i}")

    outputs = pool.map(forward, enumerate(examples))
    correct = 0
    for example, (raw, parsed) in zip(examples, outputs):
        if kind is ScoreKind.CLASSIFICATION_ACCURACY:
            correct += int(parsed == example.gold_label)
        else:
            correct += int(exact_match_correct(raw, example.gold_label))
    return correct / len(examples)


@dataclass
class ScoreFunction:
    """Callable scorer bound to a fixed example slice and backend."""

    examples: tuple[LabeledExample, ...]
    lm: Backend
    kind: ScoreKind = ScoreKind.CLASSIFICATION_ACCURACY
    label_set: tuple[str, ...] = ()
    forward_template: str = FORWARD_TEMPLATE
    tag: str = "score"
    pool: CallPool = SEQUENTIAL

    def __call__(self, prompt_text: str) -> float:
        return score_prompt(
            prompt_text,
            self.examples,
            self.lm,
            self.kind,
            self.label_set,
            self.forward_template,
            tag=self.tag,
            pool=self.pool,
        )


@dataclass
class TaskBinding:
    """A named task: splits, label set, initial instruction, scoring rule."""

    name: str
    label_set: tuple[str, ...]
    train: tuple[LabeledExample, ...]
    holdout: tuple[LabeledExample, ...]
    test: tuple[LabeledExample, ...]
    initial_prompt: str
    forward_template: str = FORWARD_TEMPLATE
    exact_match: bool = False

    def __post_init__(self) -> None:
        self.label_set = tuple(self.label_set)
        self.train = tuple(self.train)
        self.holdout = tuple(self.holdout)
        self.test = tuple(self.test)
        if not self.initial_prompt:
            raise DomainError("initial_prompt must be nonempty")
        if not self.exact_match and not self.label_set:
            raise DomainError("classification tasks need a nonempty label_set")
        seen: dict[str, str] = {}
        for split_name, split in (("train", self.train), ("holdout", self.holdout), ("test", self.test)):
            for example in split:
                if self.label_set and example.gold_label not in self.label_set:
                    raise LabelError(
                        f"{split_name} example has label {example.gold_label!r} outside the label set"
                    )
                other = seen.get(example.input_text)
                if other is not None and other != split_name:
                    raise DomainError(
                        f"input appears in both {other} and {split_name}: {example.input_text!r}"
                    )
                seen[example.input_text] = split_name

    @property
    def score_kind(self) -> ScoreKind:
        return ScoreKind.EXACT_MATCH if self.exact_match else ScoreKind.CLASSIFICATION_ACCURACY

    def score_function(
        self, lm: Backend, split: str = "holdout", tag: str = "score", pool: CallPool = SEQUENTIAL
    ) -> ScoreFunction:
        examples = {"train": self.train, "holdout": self.holdout, "test": self.test}[split]
        return ScoreFunction(
            examples=examples,
            lm=lm,
            kind=self.score_kind,
            label_set=self.label_set,
            forward_template=self.forward_template,
            tag=tag,
            pool=pool,
        )


# ---------------------------------------------------------------------------
# bundled task presets


@dataclass(frozen=True)
class TaskPreset:
    """Initial instruction and label set for a known benchmark task."""

    name: str
    initial_prompt: str
    labels: tuple[str, ...]
    exact_match: bool = False


def load_presets() -> dict[str, TaskPreset]:
    """All bundled presets, keyed by lowercase task name."""
    raw = json.loads(
        Path(__file__).with_name("data").joinpath("initial_prompts.json").read_text(encoding="utf-8")
    )
    presets = {}
    for name, body in raw.items():
        presets[name] = TaskPreset(
            name=name,
            initial_prompt=body["initial_prompt"],
            labels=tuple(body.get("labels", ())),
            exact_match=bool(body.get("exact_match", False)),
        )
    return presets


def get_preset(name: str) -> TaskPreset:
    presets = load_presets()
    key = name.lower()
    if key not in presets:
        raise KeyError(f"unknown task preset {name!r}; known: {sorted(presets)}")
    return presets[key]


def binding_from_preset(
    name: str,
    train: Sequence[LabeledExample],
    holdout: Sequence[LabeledExample],
    test: Sequence[LabeledExample],
) -> TaskBinding:
    preset = get_preset(name)
    return TaskBinding(
        name=preset.name,
        label_set=preset.labels,
        train=tuple(train),
        holdout=tuple(holdout),
        test=tuple(test),
        initial_prompt=preset.initial_prompt,
        exact_match=preset.exact_match,
    )


def synthetic_binding(
    n_train: int = 40,
    n_holdout: int = 16,
    n_test: int = 16,
    seed: int = 0,
    name: str = "synthetic",
) -> TaskBinding:
    """Two-class toy task for offline runs and tests.

    Each input names its own class word ("carries marker blue"), so a
    scripted backend keyed on the marker scores 1.0 and a constant backend
    scores roughly the base rate.
    """
    rng = substream(seed, STREAM_TASK)
    labels = ("blue", "red")

    def make(count: int, offset: int) -> tuple[LabeledExample, ...]:
        out = []
        for i in range(count):
            label = labels[int(rng.integers(0, 2))]
            out.append(LabeledExample(f"item {offset + i} carries marker {label}", label))
        return tuple(out)

    return TaskBinding(
        name=name,
        label_set=labels,
        train=make(n_train, 0),
        holdout=make(n_holdout, n_train),
        test=make(n_test, n_train + n_holdout),
        initial_prompt="Read the item description, then answer blue or red.",
    )
