"""Minimal named-and-typed field schemas for action payloads and tool arguments.

A schema is a flat mapping of field name to :class:`FieldSpec`. Validation is
strict: required fields must be present with the declared type and unknown
fields are rejected. Violations are returned as strings naming the field and
the cause, not raised, so callers can feed them back into retry prompts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

_TYPE_CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


@dataclass(frozen=True)
class FieldSpec:
    """One named field: a JSON-style type tag plus a required flag."""

    type: str
    required: bool = True

    def __post_init__(self):
        if self.type not in _TYPE_CHECKS:
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
    def json_text(self) -> str:
        """:func:`canonical_json` of :meth:`json_schema`, built once per schema;
        the structured-parse prompt embeds it."""
        return canonical_json(self.json_schema())


def validate_action(body: Any, schema: ResponseSchema) -> list[str]:
    """Validate ``body`` against ``schema``; return violations (empty list = ok)."""
    if not isinstance(body, dict):
        return [f"payload: expected object, got {type(body).__name__}"]
    violations = []
    for name, spec in schema.fields.items():
        if name not in body:
            if spec.required:
                violations.append(f'missing "{name}"')
            continue
        value = body[name]
        if value is None and not spec.required:
            continue
        if not _TYPE_CHECKS[spec.type](value):
            violations.append(
                f'type mismatch "{name}": expected {spec.type}, got {type(value).__name__}'
            )
    for name in body:
        if name not in schema.fields:
            violations.append(f'unknown field "{name}"')
    return violations


canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode
"""Deterministic JSON used for hashing, logs, and replay fingerprints; one
encoder serves every call, with the bytes of ``json.dumps`` at these settings."""
