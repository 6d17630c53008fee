"""Loading recurrence specs from JSON documents.

The concrete document syntax is JSON (one fixed choice).  Schema:

    {
      "variables":    ["x", "y"],          # ordered variable names
      "order":        2,
      "coefficients": ["x", "y"],          # expression strings, c_1..c_k
      "initial":      ["0", "1"],          # expression strings, P_0..P_{k-1}
      "family":       "custom"             # optional preset tag
    }

A non-"custom" family tag expands to a documented preset and forbids
overriding ``variables``, ``coefficients`` and ``initial``;
``generalized-lucas`` additionally requires ``order`` (k >= 2), and an
``order`` given with any other preset must be that preset's.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .closedform import generalized_lucas_spec
from .families import Order2Family, dickson_family
from .parse import NAME_RULE, ParseError, is_name, parse_poly
from .recurrence import RecurrenceSpec
from .ring import MultiPoly

FAMILY_TAGS = ("fibonacci2", "lucas2", "dickson-d", "dickson-e",
               "generalized-lucas", "custom")


class SpecFormatError(ValueError):
    """A spec document is malformed; the message names the offending field."""


def family_spec(tag: str, order: int | None = None) -> RecurrenceSpec:
    """Expand a family preset tag into a RecurrenceSpec; a given ``order``
    must be the preset's."""
    if tag in ("fibonacci2", "lucas2"):
        variables = ("x", "y")
        family = Order2Family(MultiPoly.var("x", variables), MultiPoly.var("y", variables))
        spec = family.fib_spec() if tag == "fibonacci2" else family.lucas_spec()
    elif tag in ("dickson-d", "dickson-e"):
        family = dickson_family()
        spec = family.lucas_spec() if tag == "dickson-d" else family._spec(1, family.q1)
    elif tag == "generalized-lucas":
        if order is None:
            raise SpecFormatError("family 'generalized-lucas' requires field 'order'")
        if order < 2:
            raise SpecFormatError("order: generalized-lucas requires order >= 2")
        spec = generalized_lucas_spec(order)
    else:
        raise SpecFormatError(f"family: unknown tag {tag!r} (known: {', '.join(FAMILY_TAGS)})")
    if order is not None and spec.order != order:
        raise SpecFormatError(f"order: family {tag!r} has order {spec.order}, got {order}")
    return spec


def _expr_list(doc: Mapping, field: str, order: int, variables: tuple[str, ...]) -> list[MultiPoly]:
    raw = doc.get(field)
    if raw is None:
        raise SpecFormatError(f"{field}: missing field")
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise SpecFormatError(f"{field}: expected a list of expression strings")
    if len(raw) != order:
        raise SpecFormatError(f"{field}: expected {order} entries, got {len(raw)}")
    polys = []
    for idx, text in enumerate(raw):
        try:
            polys.append(parse_poly(text, variables))
        except ParseError as exc:
            raise SpecFormatError(f"{field}[{idx}]: {exc}") from exc
    return polys


def _is_int(value) -> bool:
    # JSON true and false load as bool, which is an int subclass.
    return isinstance(value, int) and not isinstance(value, bool)


def spec_from_mapping(doc: Mapping) -> RecurrenceSpec:
    if not isinstance(doc, Mapping):
        raise SpecFormatError("document: expected a JSON object")
    tag = doc.get("family", "custom")
    if tag not in FAMILY_TAGS:
        raise SpecFormatError(f"family: unknown tag {tag!r} (known: {', '.join(FAMILY_TAGS)})")
    if tag != "custom":
        for field in ("variables", "coefficients", "initial"):
            if field in doc:
                raise SpecFormatError(f"{field}: may not be overridden when family={tag!r}")
        order = doc.get("order")
        if order is not None and not _is_int(order):
            raise SpecFormatError("order: expected an integer")
        return family_spec(tag, order)

    variables = doc.get("variables")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise SpecFormatError("variables: expected a list of names")
    for name in variables:
        if not is_name(name):
            raise SpecFormatError(f"variables: {name!r} is not a name ({NAME_RULE})")
    if len(set(variables)) != len(variables):
        raise SpecFormatError("variables: duplicate names")
    variables = tuple(variables)
    order = doc.get("order")
    if not _is_int(order) or order < 1:
        raise SpecFormatError("order: expected an integer >= 1")
    coeffs = _expr_list(doc, "coefficients", order, variables)
    initial = _expr_list(doc, "initial", order, variables)
    return RecurrenceSpec.make(variables, coeffs, initial)


def load_spec(path: str | Path) -> RecurrenceSpec:
    """Load and fully validate a JSON spec document."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFormatError(f"document: cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"document: not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"document: invalid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise SpecFormatError("document: JSON nested too deeply") from exc
    return spec_from_mapping(doc)
