"""Task harness: label parsing, dataset loading, batch sampling, scoring."""

from __future__ import annotations

import json

import pytest

from tsgdm import (
    DomainError,
    EmptySetError,
    FORWARD_TEMPLATE,
    LabelError,
    LabeledExample,
    ParseError,
    ScoreFunction,
    ScoreKind,
    ScriptRule,
    ScriptedBackend,
    SizeError,
    TaskBinding,
    exact_match_correct,
    extract_final_number,
    get_preset,
    load_dataset,
    load_presets,
    normalize_text,
    parse_label,
    predict,
    render_forward,
    sample_batch,
    score_prompt,
    substream,
    synthetic_binding,
)
from tsgdm.rng import STREAM_BATCH
from tsgdm.cli import TaskSettings, build_task


class TestNormalization:
    def test_folds_case_and_punctuation(self):
        assert normalize_text("  Hello,   World!! ") == "hello world"

    def test_non_ascii_folds_to_separator(self):
        assert normalize_text("café au lait") == "caf au lait"

    def test_empty(self):
        assert normalize_text("...") == ""


class TestParseLabel:
    LABELS = ("positive", "negative")

    def test_single_match_with_noise(self):
        assert parse_label(" Positive.", self.LABELS) == "positive"

    def test_no_match(self):
        assert parse_label("banana", self.LABELS) is None

    def test_ambiguous_completion(self):
        assert parse_label("negative or positive", self.LABELS) is None

    def test_multiword_label(self):
        labels = ("sentence a", "sentence b")
        assert parse_label("The answer is sentence A.", labels) == "sentence a"

    def test_empty_label_never_matches(self):
        assert parse_label("anything", ("", "yes")) is None

    def test_labels_that_normalize_the_same_are_both_present(self):
        labels = ["Yes", "yes!", "no"]
        assert parse_label("YES.", labels) is None
        assert parse_label("no", labels) == "no"
        assert parse_label("no", tuple(labels)) == "no"

    def test_labels_parse_back_to_themselves_for_all_presets(self):
        for preset in load_presets().values():
            for label in preset.labels:
                assert parse_label(label, preset.labels) == label, preset.name


class TestExactMatch:
    def test_final_number_extraction(self):
        assert extract_final_number("first 7, then 42.") == "42"
        assert extract_final_number("total: 12,345") == "12345"
        assert extract_final_number("delta is -3.5") == "-3.5"
        assert extract_final_number("no digits here") is None

    def test_numeric_gold_compares_final_number(self):
        assert exact_match_correct("The answer is 42.", "42")
        assert exact_match_correct("so 6 * 7 = 42", "42")
        assert exact_match_correct("42.0", "42")
        assert not exact_match_correct("The answer is 41.", "42")
        assert not exact_match_correct("no number", "42")

    def test_textual_gold_compares_normalized_equality(self):
        assert exact_match_correct("Paris!", "paris")
        assert not exact_match_correct("in paris france", "paris")

    def test_gold_with_embedded_number_is_textual(self):
        assert exact_match_correct("Over 9000", "over 9000")
        assert not exact_match_correct("9000", "over 9000")


class TestLoadDataset:
    def write(self, tmp_path, content):
        path = tmp_path / "data.jsonl"
        path.write_text(content, encoding="utf-8")
        return path

    def test_reads_rows_and_skips_blank_lines(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"text": "a", "label": "yes"}\n\n{"text": "b", "label": "no"}\n',
        )
        rows = load_dataset(path, ("yes", "no"))
        assert rows == [LabeledExample("a", "yes"), LabeledExample("b", "no")]

    def test_empty_file(self, tmp_path):
        assert load_dataset(self.write(tmp_path, "")) == []

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = self.write(tmp_path, '{"text": "a", "label": "yes"}\nnot json\n')
        with pytest.raises(ParseError, match=r":2:"):
            load_dataset(path)

    def test_missing_field(self, tmp_path):
        path = self.write(tmp_path, '{"text": "a"}\n')
        with pytest.raises(ParseError, match=r":1:"):
            load_dataset(path)

    def test_label_outside_set(self, tmp_path):
        path = self.write(tmp_path, '{"text": "a", "label": "maybe"}\n')
        with pytest.raises(LabelError, match="maybe"):
            load_dataset(path, ("yes", "no"))

    def test_no_label_set_accepts_anything(self, tmp_path):
        path = self.write(tmp_path, '{"text": "a", "label": 3}\n')
        assert load_dataset(path) == [LabeledExample("a", "3")]


class TestSampleBatch:
    POOL = tuple(LabeledExample(f"x{i}", "yes") for i in range(8))

    def test_oversampling_without_replacement(self):
        with pytest.raises(SizeError):
            sample_batch(self.POOL, 9, substream(0, STREAM_BATCH, 0))

    def test_full_batch_is_a_permutation(self):
        batch = sample_batch(self.POOL, 8, substream(0, STREAM_BATCH, 0))
        assert sorted(e.input_text for e in batch) == sorted(e.input_text for e in self.POOL)

    def test_without_replacement_has_no_duplicates(self):
        batch = sample_batch(self.POOL, 5, substream(3, STREAM_BATCH, 1))
        names = [e.input_text for e in batch]
        assert len(set(names)) == 5

    def test_with_replacement_allows_oversampling(self):
        batch = sample_batch(self.POOL, 30, substream(0, STREAM_BATCH, 0), with_replacement=True)
        assert len(batch) == 30
        assert set(e.input_text for e in batch) <= set(e.input_text for e in self.POOL)

    def test_deterministic_given_stream(self):
        first = sample_batch(self.POOL, 4, substream(9, STREAM_BATCH, 2))
        second = sample_batch(self.POOL, 4, substream(9, STREAM_BATCH, 2))
        assert first == second

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_batch(self.POOL, 0, substream(0, STREAM_BATCH, 0))
        with pytest.raises(EmptySetError):
            sample_batch((), 1, substream(0, STREAM_BATCH, 0))


class TestPredict:
    def test_renders_forward_template_and_parses(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("widget", " It is a Widget, yes.")], default_response=" no"
        )
        raw, parsed = predict(backend, "Classify.", "a widget thing", ("yes", "no"))
        assert raw == " It is a Widget, yes."
        assert parsed == "yes"
        request = backend.call_log[0]
        assert request.prompt_text == "Classify.\na widget thing\nAnswer:"
        assert request.max_new_tokens == 16
        assert request.temperature == 0.0
        assert request.request_tag == "predict"

    def test_render_forward_is_byte_exact(self):
        assert render_forward("P", "x", FORWARD_TEMPLATE) == "P\nx\nAnswer:"


class TestScorePrompt:
    def examples(self):
        return (
            LabeledExample("say alpha", "yes"),
            LabeledExample("say beta", "no"),
            LabeledExample("say gamma", "yes"),
        )

    def backend(self):
        return ScriptedBackend(
            rules=[
                ScriptRule("alpha", " yes"),
                ScriptRule("beta", " no"),
                ScriptRule("gamma", " maybe"),
            ],
            default_response="",
        )

    def test_classification_counts_parsed_matches(self):
        backend = self.backend()
        score = score_prompt("P", self.examples(), backend, label_set=("yes", "no"))
        assert score == pytest.approx(2 / 3)
        assert [r.request_tag for r in backend.call_log] == [
            "score/ex0",
            "score/ex1",
            "score/ex2",
        ]

    def test_unmatched_completions_score_zero(self):
        backend = ScriptedBackend(rules=[], default_response=" unrelated words")
        assert score_prompt("P", self.examples(), backend, label_set=("yes", "no")) == 0.0

    def test_empty_example_set(self):
        with pytest.raises(EmptySetError):
            score_prompt("P", (), self.backend())

    def test_exact_match_kind(self):
        backend = ScriptedBackend(
            rules=[ScriptRule("q1", "The answer is 42."), ScriptRule("q2", "I get 41")],
            default_response="",
        )
        examples = (LabeledExample("q1", "42"), LabeledExample("q2", "42"))
        score = score_prompt("P", examples, backend, kind=ScoreKind.EXACT_MATCH)
        assert score == 0.5

    def test_score_prompts_orders_calls_by_prompt_then_example(self):
        backend = self.backend()
        scores = ScoreFunction(self.examples(), backend, label_set=("yes", "no")).many(["P", "Q"])
        assert scores == [pytest.approx(2 / 3)] * 2
        assert [(r.prompt_text.split("\n")[0], r.request_tag) for r in backend.call_log] == [
            (prompt, f"score/ex{i}") for prompt in ("P", "Q") for i in range(3)
        ]

    @pytest.mark.parametrize("exact_match", [False, True])
    def test_many_equals_one_call_per_prompt(self, exact_match):
        backend = ScriptedBackend(
            rules=[
                ScriptRule("loose", " yes no"),
                ScriptRule("strict\nalpha", " yes 42"),
                ScriptRule("alpha", " yes"),
                ScriptRule("beta", " no 42"),
            ],
            default_response=" 7",
        )
        task = TaskBinding(
            name="t",
            label_set=() if exact_match else ("yes", "no"),
            train=(),
            holdout=(
                LabeledExample("alpha", "42" if exact_match else "yes"),
                LabeledExample("beta", "42" if exact_match else "no"),
                LabeledExample("gamma", "7" if exact_match else "yes"),
            ),
            test=(),
            initial_prompt="P",
            exact_match=exact_match,
        )
        fn = task.score_function(backend)
        prompts = ["strict", "loose", "other", "strict"]
        batched = fn.many(prompts)
        assert batched == [fn(p) for p in prompts]
        assert len(set(batched)) > 1

    def test_score_function_binds_split(self, tiny_task):
        backend = ScriptedBackend(
            rules=[
                ScriptRule("carries marker blue", " blue"),
                ScriptRule("carries marker red", " red"),
            ],
            default_response=" blue",
        )
        fn = tiny_task.score_function(backend, split="test", tag="final")
        assert fn(tiny_task.initial_prompt) == 1.0
        assert len(backend.call_log) == len(tiny_task.test)
        assert backend.call_log[0].request_tag == "final/ex0"


class TestTaskBinding:
    def make(self, **kwargs):
        defaults = dict(
            name="t",
            label_set=("yes", "no"),
            train=(LabeledExample("a", "yes"),),
            holdout=(LabeledExample("b", "no"),),
            test=(LabeledExample("c", "yes"),),
            initial_prompt="Answer yes or no.",
        )
        defaults.update(kwargs)
        return TaskBinding(**defaults)

    def test_valid_binding(self):
        binding = self.make()
        assert binding.score_kind is ScoreKind.CLASSIFICATION_ACCURACY

    def test_exact_match_kind(self):
        binding = self.make(label_set=(), exact_match=True)
        assert binding.score_kind is ScoreKind.EXACT_MATCH

    def test_split_overlap_rejected(self):
        with pytest.raises(DomainError, match="both"):
            self.make(holdout=(LabeledExample("a", "no"),))

    def test_label_outside_set_rejected(self):
        with pytest.raises(LabelError):
            self.make(train=(LabeledExample("a", "maybe"),))

    def test_empty_prompt_rejected(self):
        with pytest.raises(DomainError):
            self.make(initial_prompt="")

    def test_classification_needs_labels(self):
        with pytest.raises(DomainError):
            self.make(label_set=())

    @pytest.mark.parametrize("template", ["{prompt} {nope}", "{prompt}\nAnswer:", "{prompt} {input} {", "{prompt} {input} {}"])
    def test_forward_template_that_cannot_render_is_rejected(self, template):
        with pytest.raises(DomainError, match="forward_template"):
            self.make(forward_template=template)


class TestPresets:
    def test_all_presets_are_well_formed(self):
        presets = load_presets()
        assert len(presets) >= 5
        for preset in presets.values():
            assert preset.initial_prompt
            if preset.exact_match:
                continue
            assert len(preset.labels) >= 2

    def test_gsm8k_is_exact_match(self):
        preset = get_preset("gsm8k")
        assert preset.exact_match

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="nope"):
            get_preset("nope")

    def test_binding_from_preset(self, tmp_path):
        splits = {"train": ("a", "positive"), "holdout": ("b", "negative"), "test": ("c", "positive")}
        paths = {}
        for split, (text, label) in splits.items():
            paths[f"{split}_path"] = str(tmp_path / f"{split}.jsonl")
            (tmp_path / f"{split}.jsonl").write_text(json.dumps({"text": text, "label": label}) + "\n")
        binding = build_task(TaskSettings(name="sst2", **paths))
        assert binding.name == "sst2"
        assert binding.initial_prompt == get_preset("sst2").initial_prompt


class TestSyntheticBinding:
    def test_sizes_and_labels(self):
        binding = synthetic_binding(n_train=10, n_holdout=4, n_test=5, seed=3)
        assert (len(binding.train), len(binding.holdout), len(binding.test)) == (10, 4, 5)
        for example in binding.train + binding.holdout + binding.test:
            assert example.gold_label in ("blue", "red")
            assert example.input_text.endswith(f"carries marker {example.gold_label}")

    def test_splits_are_disjoint(self):
        binding = synthetic_binding(n_train=10, n_holdout=4, n_test=5, seed=3)
        names = [e.input_text for e in binding.train + binding.holdout + binding.test]
        assert len(set(names)) == len(names)

    def test_deterministic_given_seed(self):
        assert synthetic_binding(seed=11) == synthetic_binding(seed=11)
        assert synthetic_binding(seed=11) != synthetic_binding(seed=12)
