"""Value rules, one home for every config, manifest and model file.

A number is a Python or numpy real number and an integer a Python or numpy
integer, never a bool; finite is neither infinite nor NaN; an object is a
JSON object.  Every message reads ``"<name> must be <rule> (got <value>)"``:
config dataclasses list theirs with :func:`field_errors`, and file readers
check one value at a time with :func:`checked` and its wrappers.
"""

import numpy as np


def is_number(val, integer: bool = False) -> bool:
    """A real number, an integer where ``integer``, numpy scalars included;
    never a boolean."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    return not isinstance(val, bool) and isinstance(val, kinds)


def is_finite(val) -> bool:
    """A number, as ``is_number``, that is neither infinite nor NaN."""
    return is_number(val) and (is_number(val, integer=True) or bool(np.isfinite(val)))


class Rule:
    """``test(value)`` holds for a value that keeps the rule; ``text``
    completes "must be" in the message for one that does not."""

    def __init__(self, test, text: str):
        self.test, self.text = test, text

    def message(self, name: str, val) -> str:
        return f"{name} must be {self.text} (got {val!r})"


NUMBER = Rule(is_number, "a number")
INTEGER = Rule(lambda v: is_number(v, integer=True), "an integer")
OBJECT = Rule(lambda v: isinstance(v, dict), "an object")
FINITE = Rule(is_finite, "a finite number")
POSITIVE = Rule(lambda v: is_finite(v) and v > 0, "a finite number > 0")
NON_NEGATIVE = Rule(lambda v: is_finite(v) and v >= 0, "a finite number >= 0")
OPEN_UNIT = Rule(lambda v: is_number(v) and 0 < v < 1, "a number in (0, 1)")
HALF_OPEN_UNIT = Rule(lambda v: is_number(v) and 0 <= v < 1, "a number in [0, 1)")
COUNT = Rule(lambda v: is_number(v, integer=True) and v >= 1, "an integer >= 1")
#: Seeds (those numpy's generators accept), patiences, sizes and offsets.
NON_NEGATIVE_INT = Rule(lambda v: is_number(v, integer=True) and v >= 0, "an integer >= 0")


def field_errors(obj, rules: dict, prefix: str = "") -> list[str]:
    """A message for each field of ``obj`` that breaks its rule, in the
    order of ``rules`` (field name -> ``Rule``), ``prefix`` before the name."""
    return [rule.message(prefix + name, getattr(obj, name))
            for name, rule in rules.items() if not rule.test(getattr(obj, name))]


def raise_if(errors: list[str]) -> None:
    """``ValueError`` listing ``errors``, unless there are none."""
    if errors:
        raise ValueError("; ".join(errors))


def checked(name: str, val, rule: Rule):
    """``val`` itself; ``ValueError`` naming ``name`` unless it keeps ``rule``."""
    if not rule.test(val):
        raise ValueError(rule.message(name, val))
    return val


def number(key: str, val, integer: bool = False):
    """``val`` as a float, or as itself where ``integer``, once ``checked``."""
    checked(key, val, INTEGER if integer else NUMBER)
    return val if integer else float(val)


def object_(key: str, val) -> dict:
    """``val`` itself, once ``checked`` to be a JSON object."""
    return checked(key, val, OBJECT)


def numbers(key: str, val):
    """``val``, lists of numbers nested to any depth, with each number as a
    float; ``ValueError`` naming ``key`` for an entry that is not one."""
    if isinstance(val, list):
        return [numbers(key, x) for x in val]
    return number(f"every entry of {key}", val)
