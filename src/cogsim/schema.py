"""Minimal named-and-typed field schemas for action payloads and tool arguments.

A schema is a flat mapping of field name to :class:`FieldSpec`. Validation is
strict: required fields must be present with the declared type and unknown
fields are rejected. Violations are returned as strings naming the field and
the cause, not raised, so callers can feed them back into retry prompts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

# each type's Python classes; a bool is an int to isinstance, so the numeric types refuse it apart
_TYPES = {
    "integer": int,
    "number": (int, float),
    "string": str,
    "boolean": bool,
    "array": list,
    "object": dict,
}


def _fits_a_float(value: int | float) -> bool:
    """Whether ``value`` is a finite float or an int that converts to one."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class FieldSpec:
    """One named field: a JSON-style type tag plus a required flag."""

    type: str
    required: bool = True

    def __post_init__(self):
        if self.type not in _TYPES:
            raise ValueError(f"unknown field type {self.type!r}")


@dataclass(frozen=True)
class ResponseSchema:
    """A flat, strict schema over a JSON object payload."""

    fields: Mapping[str, FieldSpec] = field(default_factory=dict)

    @staticmethod
    def of(**specs: str) -> "ResponseSchema":
        """Build a schema from ``name="type"`` pairs; a ``"?"`` suffix marks optional.

        >>> ResponseSchema.of(bid="number?", priorities="object?")
        """
        fields = {}
        for name, spec in specs.items():
            required = not spec.endswith("?")
            fields[name] = FieldSpec(type=spec.rstrip("?"), required=required)
        return ResponseSchema(fields=fields)

    def hint_text(self) -> str:
        """Human/LLM-readable one-line-per-field description, built once per schema."""
        return self._hint

    @cached_property
    def _hint(self) -> str:
        lines = []
        for name, spec in self.fields.items():
            req = "required" if spec.required else "optional"
            lines.append(f"- {name} ({spec.type}, {req})")
        return "\n".join(lines)

    def json_schema(self) -> dict[str, Any]:
        """JSON-schema-shaped view, used on the wire for tools and response formats."""
        properties = {name: {"type": spec.type} for name, spec in self.fields.items()}
        required = [n for n, s in self.fields.items() if s.required]
        return {
            "type": "object",
            "properties": properties,
            "required": required,
            "additionalProperties": False,
        }

    @cached_property
    def checks(self) -> tuple[tuple[str, bool, type | tuple[type, ...], str, bool], ...]:
        """Per field, in order, what :func:`validate_action` tests: its name,
        whether it is required, the classes its type admits, the type, and
        whether the type is numeric; compiled once per schema."""
        return tuple(
            (name, spec.required, _TYPES[spec.type], spec.type, spec.type in ("integer", "number"))
            for name, spec in self.fields.items()
        )

    @cached_property
    def json_text(self) -> str:
        """:func:`canonical_json` of :meth:`json_schema`, built once per schema;
        the structured-parse prompt embeds it."""
        return canonical_json(self.json_schema())


def validate_action(body: Any, schema: ResponseSchema) -> list[str]:
    """Validate ``body`` against ``schema``; return violations (empty list = ok)."""
    if not isinstance(body, dict):
        return [f"payload: expected object, got {type(body).__name__}"]
    violations = []
    known = 0
    for name, required, classes, type_, numeric in schema.checks:
        if name not in body:
            if required:
                violations.append(f'missing "{name}"')
            continue
        known += 1
        value = body[name]
        if value is None and not required:
            continue
        if not isinstance(value, classes) or numeric and (value is True or value is False):
            violations.append(f'type mismatch "{name}": expected {type_}, got {type(value).__name__}')
        elif numeric and not _fits_a_float(value):
            violations.append(f'out of range "{name}": {type_} does not fit a finite float')
    if known != len(body):
        violations += [f'unknown field "{name}"' for name in body if name not in schema.fields]
    return violations


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)

if json.encoder.c_make_encoder is None:
    canonical_json = _ENCODER.encode  # the same bytes; each call builds a pure-Python encoder
else:
    _c_encode = json.encoder.c_make_encoder(
        None, _ENCODER.default, json.encoder.encode_basestring_ascii, _ENCODER.indent, _ENCODER.key_separator,
        _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
    )

    def canonical_json(value: Any) -> str:
        """Deterministic JSON used for hashing, logs, and replay fingerprints, with
        the bytes of ``json.dumps`` at these settings. The C encoder is built once,
        with no circular-reference check: it keeps no per-call state, so threads
        share it, and a circular value raises ``RecursionError``."""
        return "".join(_c_encode(value, 0))
