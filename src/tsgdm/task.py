"""Task harness: datasets, forward passes, and prompt scoring.

A task binds labeled train/holdout/test splits to an initial instruction and
a scoring rule. Classification tasks score by parsing exactly one label out
of the completion; free-form tasks score by normalized exact match, with a
last-number comparison when the gold answer is numeric.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import DomainError, EmptySetError, LabelError, ParseError, SizeError
from .gateway import SEQUENTIAL, Backend, CallPool, CompletionRequest
from .rng import STREAM_TASK, RandomStream, substream
from .templates import FORWARD_TEMPLATE, check_template, render_forward

# Decoding settings for every forward pass: greedy, short budget.
EVAL_MAX_TOKENS = 16
EVAL_TEMPERATURE = 0.0

_NON_ALNUM_RE = re.compile(r"[^0-9a-z]+")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


class LabeledExample(NamedTuple):
    """One dataset row. As a tuple it equals ``(input_text, gold_label)``."""

    input_text: str
    gold_label: str


def normalize_text(text: str) -> str:
    """Lowercase, fold punctuation to spaces, collapse runs of whitespace."""
    return _NON_ALNUM_RE.sub(" ", text.lower()).strip()


@functools.lru_cache(maxsize=64)
def _needles(label_set: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    """Each label with its normalized form, leaving out labels that
    normalize to nothing; computed once per label set."""
    return tuple((label, needle) for label in label_set if (needle := normalize_text(label)))


def parse_label(completion: str, label_set: Sequence[str]) -> str | None:
    """Map a raw completion onto the label set.

    A label counts as present when its normalized form occurs as a substring
    of the normalized completion. Exactly one present label parses; zero or
    several present labels return None (unmatched).
    """
    haystack = normalize_text(completion)
    found = None
    for label, needle in _needles(label_set if type(label_set) is tuple else tuple(label_set)):
        if needle in haystack:
            if found is not None:
                return None
            found = label
    return found


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

    Blank lines are skipped. An unreadable file, and a malformed line with
    its line number, raise :class:`ParseError`; labels outside a nonempty
    ``label_set`` raise :class:`LabelError`.
    """
    examples: list[LabeledExample] = []
    allowed = set(label_set)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
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


def check_batch(pool_size: int, batch_size: int, with_replacement: bool) -> None:
    """Raise what :func:`sample_batch` would for this pool and batch size:
    :class:`EmptySetError` for an empty pool, and :class:`SizeError` for a
    batch larger than the pool without replacement."""
    if batch_size < 1:
        raise DomainError(f"batch_size must be >= 1, got {batch_size}")
    if not pool_size:
        raise EmptySetError("cannot sample from an empty pool")
    if not with_replacement and batch_size > pool_size:
        raise SizeError(f"batch of {batch_size} from pool of {pool_size} without replacement")


def sample_batch(
    pool: Sequence[LabeledExample],
    batch_size: int,
    rng: RandomStream,
    with_replacement: bool = False,
) -> list[LabeledExample]:
    """Draw ``batch_size`` examples from ``pool``, after :func:`check_batch`.

    Without replacement the batch is a uniform subset (a full shuffle when
    batch_size equals the pool size).
    """
    check_batch(len(pool), batch_size, with_replacement)
    if with_replacement:
        indices = rng.integers(0, len(pool), size=batch_size)
    else:
        indices = rng.permutation(len(pool))[:batch_size]
    return [pool[int(i)] for i in indices]


def score_prompt(
    task: TaskBinding,
    prompt_text: str,
    examples: Sequence[LabeledExample],
    lm: Backend,
    tag: str = "score",
    pool: CallPool = SEQUENTIAL,
) -> float:
    """Mean :meth:`TaskBinding.hit` of ``prompt_text`` over ``examples``,
    whose forward passes, tagged ``{tag}/ex{i}``, go through one
    ``pool.map`` in example order.

    Scoring zero examples raises :class:`EmptySetError` rather than
    returning a fake 0.0.
    """
    if not examples:
        raise EmptySetError("cannot score a prompt over zero examples")
    hits = pool.map(lambda i: task.hit(lm, prompt_text, examples[i], f"{tag}/ex{i}"), range(len(examples)))
    return sum(hits) / len(hits)


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
        check_template("forward_template", self.forward_template, ("prompt", "input"))
        needles = [normalize_text(label) for label in self.label_set]
        blurred = [label for label, needle in zip(self.label_set, needles) if not needle or needles.count(needle) > 1]
        if blurred:
            raise DomainError(
                f"label_set: {blurred} normalize to nothing or to the same text, so no answer can parse to them"
            )
        # Each split's inputs and labels are checked as sets; a split's examples
        # are walked only to name its first offender, the one an example-by-example
        # walk of the splits in order would meet first.
        allowed = frozenset(self.label_set)
        earlier: dict[str, set[str]] = {}  # the inputs of each split checked so far
        for split_name, split in (("train", self.train), ("holdout", self.holdout), ("test", self.test)):
            inputs, labels = map(set, zip(*split)) if split else (set(), set())
            shared = [name for name, seen in earlier.items() if not inputs.isdisjoint(seen)]
            if shared or (allowed and not labels <= allowed):
                for input_text, gold_label in split:
                    if allowed and gold_label not in allowed:
                        raise LabelError(f"{split_name} example has label {gold_label!r} outside the label set")
                    other = next((name for name in shared if input_text in earlier[name]), None)
                    if other is not None:
                        raise DomainError(f"input appears in both {other} and {split_name}: {input_text!r}")
            earlier[split_name] = inputs

    def predict(self, lm: Backend, prompt_text: str, input_text: str, tag: str) -> tuple[str, str | None]:
        """One greedy forward pass; returns (raw completion, parsed label or None)."""
        prompt = render_forward(prompt_text, input_text, self.forward_template)
        text = lm.complete(CompletionRequest(prompt, EVAL_MAX_TOKENS, EVAL_TEMPERATURE, request_tag=tag)).text
        return text, parse_label(text, self.label_set)

    def hit(self, lm: Backend, prompt_text: str, example: LabeledExample, tag: str) -> bool:
        """Whether ``prompt_text`` gets ``example`` right: one forward pass
        tagged ``tag``.

        Exact match compares the raw completion by
        :func:`exact_match_correct`. Classification counts a parsed label
        equal to the gold label; an unmatched completion is simply wrong.
        """
        raw, parsed = self.predict(lm, prompt_text, example.input_text, tag)
        if self.exact_match:
            return exact_match_correct(raw, example.gold_label)
        return parsed == example.gold_label

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


def synthetic_binding(
    n_train: int = 40,
    n_holdout: int = 16,
    n_test: int = 16,
    seed: int = 0,
) -> TaskBinding:
    """Two-class toy task for offline runs and tests.

    Each input names its own class word ("carries marker blue"), so a
    scripted backend keyed on the marker scores 1.0 and a constant backend
    scores roughly the base rate.
    """
    rng = substream(seed, STREAM_TASK)
    labels = ("blue", "red")

    # One draw for all three splits gives each split the labels of a draw of its own.
    drawn = [labels[k] for k in rng.integers(0, 2, size=n_train + n_holdout + n_test).tolist()]
    examples = [LabeledExample(f"item {i} carries marker {label}", label) for i, label in enumerate(drawn)]
    return TaskBinding(
        name="synthetic",
        label_set=labels,
        train=tuple(examples[:n_train]),
        holdout=tuple(examples[n_train : n_train + n_holdout]),
        test=tuple(examples[n_train + n_holdout :]),
        initial_prompt="Read the item description, then answer blue or red.",
    )
