"""Prompt templates and rendering helpers.

Templates are plain ``str.format`` strings. A refine template must contain
``{prompt}`` (plus ``{gradient}`` in feedback mode); the analysis template
must contain ``{prompt}`` and ``{examples}``; the history template for the
concatenation baseline must contain ``{history}``; the forward template must
contain ``{prompt}`` and ``{input}``.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError

# Forward-pass layout used for every prediction. Byte layout matters: scoring
# relies on the exact "prompt\ninput\nAnswer:" framing.
FORWARD_TEMPLATE = "{prompt}\n{input}\nAnswer:"

REFINE_PROMPT = (
    "You are an instruction optimizer for language models. Improve the "
    "instruction below so that a model following it solves the task more "
    "accurately. Reply with the improved instruction only.\n"
    "\n"
    "Current instruction:\n"
    "{prompt}\n"
    "\n"
    "Improved instruction:"
)

REFINE_WITH_FEEDBACK_PROMPT = (
    "You are an instruction optimizer for language models. Improve the "
    "instruction below using the error analysis. Reply with the improved "
    "instruction only.\n"
    "\n"
    "Current instruction:\n"
    "{prompt}\n"
    "\n"
    "Error analysis:\n"
    "{gradient}\n"
    "\n"
    "Improved instruction:"
)

ANALYZE_PROMPT = (
    "Review how the instruction below performed on a batch of examples. "
    "Describe the systematic errors it causes in a few sentences. Reply "
    "with the analysis only.\n"
    "\n"
    "Instruction:\n"
    "{prompt}\n"
    "\n"
    "Batch results:\n"
    "{examples}\n"
    "\n"
    "Error analysis:"
)

CONCAT_HISTORY_PROMPT = (
    "Here are the past iterations of this variable:\n"
    "<PAST_ITERATIONS>\n"
    "{history}\n"
    "</PAST_ITERATIONS>\n"
    "\n"
    "Write an improved next iteration of this variable. Reply with the "
    "improved version only.\n"
    "\n"
    "Improved version:"
)


def render_forward(prompt_text: str, input_text: str, template: str = FORWARD_TEMPLATE) -> str:
    """Render one forward-pass prompt."""
    return template.format(prompt=prompt_text, input=input_text)


def format_triples(triples: Sequence[tuple[str, str, str]]) -> str:
    """Lay out (input, gold, predicted) triples as a readable block."""
    parts = []
    for input_text, gold, predicted in triples:
        parts.append(f"input: {input_text}\ngold: {gold}\npredicted: {predicted}")
    return "\n\n".join(parts)


def has_placeholder(template: str, name: str) -> bool:
    return "{" + name + "}" in template


def check_template(name: str, template: str, fields: tuple[str, ...]) -> None:
    """Raise :class:`DomainError` unless ``template`` names each of
    ``fields`` and renders with those fields alone."""
    for field_name in fields:
        if not has_placeholder(template, field_name):
            raise DomainError(f"{name} needs a {{{field_name}}} placeholder")
    try:
        template.format(**{field_name: field_name for field_name in fields})
    except (KeyError, IndexError, ValueError, AttributeError) as exc:
        raise DomainError(f"{name} does not render with only {fields}: {exc!r}") from exc
