"""Checker for the JSON Schema subset that the run-config schema uses.

``schema_errors`` implements the draft 2020-12 semantics ("JSON Schema
Validation", draft 2020-12, section 6) of exactly the keywords that
config_schema.json uses:

* ``type``, ``properties``, ``additionalProperties``, ``patternProperties``
  and ``required``;
* ``$ref`` into the root ``$defs``, ``allOf``, and ``if`` with ``then``;
* ``enum``, ``const``, ``minimum``, ``maximum`` and ``exclusiveMinimum``;
* ``items``, ``minItems``, ``maxItems``, ``uniqueItems`` and ``minLength``;
* the annotations ``$schema``, ``title`` and ``description``.

A schema that uses any other keyword, a ``$ref`` anywhere but into its own
``$defs``, or an ``additionalProperties`` that is not true or false, is
refused with a ValueError before any instance is checked. So a schema edit
that needs more than this cannot pass unchecked. Each violation comes with
the same instance path and message text as the ``jsonschema`` package
reports; the tests use that package as the oracle.
"""

from __future__ import annotations

import re

__all__ = ["schema_errors"]

_DEFS = "#/$defs/"


def _is_number(value):
    # bool subclasses int, but JSON true and false are not numbers
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "array": lambda value: isinstance(value, list),
    "boolean": lambda value: isinstance(value, bool),
    # a number with a zero fractional part is an integer, 1.0 included
    "integer": lambda value: _is_number(value) and (isinstance(value, int) or value.is_integer()),
    "null": lambda value: value is None,
    "number": _is_number,
    "object": lambda value: isinstance(value, dict),
    "string": lambda value: isinstance(value, str),
}


def _equal(one, two):
    """JSON equality: true and false equal no number; 1 equals 1.0."""
    if one is two:
        return True
    if isinstance(one, bool) or isinstance(two, bool):
        return False
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return one.keys() == two.keys() and all(_equal(one[key], two[key]) for key in one)
    return one == two


def _extras(schema, instance):
    properties = schema.get("properties", {})
    patterns = schema.get("patternProperties", {})
    return sorted(name for name in instance if name not in properties
                  and not any(re.search(pattern, name) for pattern in patterns))


# Each keyword check takes (root, keyword value, instance, path, schema) and
# yields (path, message) per violation. A check ignores instances of other
# JSON types, as section 6 prescribes.

def _type(root, names, instance, path, schema):
    names = [names] if isinstance(names, str) else names
    if not any(_TYPES[name](instance) for name in names):
        yield path, f"{instance!r} is not of type {', '.join(map(repr, names))}"


def _properties(root, properties, instance, path, schema):
    if isinstance(instance, dict):
        for name, subschema in properties.items():
            if name in instance:
                yield from _errors(root, subschema, instance[name], path + (name,))


def _pattern_properties(root, patterns, instance, path, schema):
    if isinstance(instance, dict):
        for pattern, subschema in patterns.items():
            for name, value in instance.items():
                if re.search(pattern, name):
                    yield from _errors(root, subschema, value, path + (name,))


def _additional_properties(root, allowed, instance, path, schema):
    extras = [] if allowed or not isinstance(instance, dict) else _extras(schema, instance)
    if extras:
        names = ", ".join(map(repr, extras))
        if "patternProperties" in schema:
            patterns = ", ".join(map(repr, sorted(schema["patternProperties"])))
            verb = "does" if len(extras) == 1 else "do"
            yield path, f"{names} {verb} not match any of the regexes: {patterns}"
        else:
            verb = "was" if len(extras) == 1 else "were"
            yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


def _required(root, names, instance, path, schema):
    if isinstance(instance, dict):
        for name in names:
            if name not in instance:
                yield path, f"{name!r} is a required property"


def _ref(root, ref, instance, path, schema):
    yield from _errors(root, root["$defs"][ref[len(_DEFS):]], instance, path)


def _all_of(root, subschemas, instance, path, schema):
    for subschema in subschemas:
        yield from _errors(root, subschema, instance, path)


def _if(root, condition, instance, path, schema):
    # a failed condition applies no "then"; there is no "else" in the subset
    if "then" in schema and not any(_errors(root, condition, instance, path)):
        yield from _errors(root, schema["then"], instance, path)


def _enum(root, values, instance, path, schema):
    if not any(_equal(instance, value) for value in values):
        yield path, f"{instance!r} is not one of {values!r}"


def _const(root, value, instance, path, schema):
    if not _equal(instance, value):
        yield path, f"{value!r} was expected"


def _minimum(root, minimum, instance, path, schema):
    if _is_number(instance) and instance < minimum:
        yield path, f"{instance!r} is less than the minimum of {minimum!r}"


def _maximum(root, maximum, instance, path, schema):
    if _is_number(instance) and instance > maximum:
        yield path, f"{instance!r} is greater than the maximum of {maximum!r}"


def _exclusive_minimum(root, minimum, instance, path, schema):
    if _is_number(instance) and instance <= minimum:
        yield path, f"{instance!r} is less than or equal to the minimum of {minimum!r}"


def _items(root, subschema, instance, path, schema):
    if isinstance(instance, list):
        for index, item in enumerate(instance):
            yield from _errors(root, subschema, item, path + (index,))


def _min_items(root, count, instance, path, schema):
    if isinstance(instance, list) and len(instance) < count:
        yield path, f"{instance!r} {'should be non-empty' if count == 1 else 'is too short'}"


def _max_items(root, count, instance, path, schema):
    if isinstance(instance, list) and len(instance) > count:
        yield path, f"{instance!r} is too long"


def _unique_items(root, unique, instance, path, schema):
    if unique and isinstance(instance, list) and any(
        _equal(item, other) for index, item in enumerate(instance) for other in instance[:index]
    ):
        yield path, f"{instance!r} has non-unique elements"


def _min_length(root, count, instance, path, schema):
    if isinstance(instance, str) and len(instance) < count:
        yield path, f"{instance!r} {'should be non-empty' if count == 1 else 'is too short'}"


def _no_check(root, value, instance, path, schema):
    # annotations, "$defs" (reached through "$ref") and "then" (read by "if")
    return ()


_KEYWORDS = {
    "$schema": _no_check, "title": _no_check, "description": _no_check,
    "$defs": _no_check, "$ref": _ref, "allOf": _all_of, "if": _if, "then": _no_check,
    "type": _type, "properties": _properties, "patternProperties": _pattern_properties,
    "additionalProperties": _additional_properties, "required": _required,
    "enum": _enum, "const": _const,
    "minimum": _minimum, "maximum": _maximum, "exclusiveMinimum": _exclusive_minimum,
    "items": _items, "minItems": _min_items, "maxItems": _max_items,
    "uniqueItems": _unique_items, "minLength": _min_length,
}


def _errors(root, schema, instance, path):
    for keyword, value in schema.items():
        yield from _KEYWORDS[keyword](root, value, instance, path, schema)


def _refuse_unsupported(root, schema, pointer):
    """Raise ValueError at the first schema outside the subset, nested ones included."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema at {pointer} is not an object")
    if schema.keys() - _KEYWORDS.keys():
        unknown = sorted(schema.keys() - _KEYWORDS.keys())
        raise ValueError(f"schema at {pointer} uses unsupported keywords {unknown}")
    if not isinstance(schema.get("additionalProperties", False), bool):
        raise ValueError(f"schema at {pointer} has an unsupported additionalProperties schema")
    ref = schema.get("$ref")
    if ref is not None and not (ref.startswith(_DEFS)
                                and ref[len(_DEFS):] in root.get("$defs", {})):
        raise ValueError(f"schema at {pointer} has an unsupported $ref {ref!r}")
    for keyword, value in schema.items():
        if keyword in ("items", "if", "then"):
            _refuse_unsupported(root, value, f"{pointer}/{keyword}")
        elif keyword in ("properties", "patternProperties", "$defs"):
            for name, subschema in value.items():
                _refuse_unsupported(root, subschema, f"{pointer}/{keyword}/{name}")
        elif keyword == "allOf":
            for index, subschema in enumerate(value):
                _refuse_unsupported(root, subschema, f"{pointer}/allOf/{index}")


def schema_errors(schema, instance):
    """(instance path, message) for every violation of ``schema`` by ``instance``.

    Paths are tuples of object keys and array indices. Violations come in
    schema order; one path can carry several. Raises ValueError when the
    schema uses anything outside the subset this module implements.
    """
    _refuse_unsupported(schema, schema, "#")
    return list(_errors(schema, schema, instance, ()))
