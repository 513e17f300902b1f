"""The value rules every config, manifest and model file is checked by."""

import ast
from pathlib import Path

import numpy as np
import pytest

import koopmanmpc
from koopmanmpc import checks

PACKAGE = Path(koopmanmpc.__file__).resolve().parent


def imports(path: Path) -> list[ast.ImportFrom | ast.Import]:
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_module_imports_a_private_name_of_another():
    # a rule one module needs lives in checks, not behind another's underscore
    private = [f"{path.name}: {node.module}.{alias.name}"
               for path in sorted(PACKAGE.glob("*.py")) for node in imports(path)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "koopmanmpc")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_checks_imports_numpy_alone():
    tops = {(node.module if isinstance(node, ast.ImportFrom) else alias.name).split(".")[0]
            for node in imports(PACKAGE / "checks.py") for alias in node.names}
    assert tops == {"numpy"}


@pytest.mark.parametrize("value, number, integer, finite", [
    (3, True, True, True),
    (np.int64(3), True, True, True),
    (10**400, True, True, True),
    (2.5, True, False, True),
    (np.float32(2.5), True, False, True),
    (float("inf"), True, False, False),
    (float("nan"), True, False, False),
    (True, False, False, False),
    (np.bool_(True), False, False, False),
    ("3", False, False, False),
    (None, False, False, False),
    ([3], False, False, False),
])
def test_number_integer_and_finite(value, number, integer, finite):
    assert checks.is_number(value) is number
    assert checks.is_number(value, integer=True) is integer
    assert checks.is_finite(value) is finite


def test_field_errors_name_each_broken_field_in_rule_order():
    class Obj:
        a, b, c = 0, "x", 2

    rules = {"c": checks.COUNT, "a": checks.COUNT, "b": checks.NUMBER}
    assert checks.field_errors(Obj, rules) == [
        "a must be an integer >= 1 (got 0)", "b must be a number (got 'x')"]
    assert checks.field_errors(Obj, {"a": checks.NON_NEGATIVE_INT}, prefix="obj ") == []
    with pytest.raises(ValueError, match=r"^a must be an integer >= 1 \(got 0\); b must be"):
        checks.raise_if(checks.field_errors(Obj, rules))
    checks.raise_if([])


def test_readers_take_values_as_written():
    assert checks.number("x", 2) == 2.0 and type(checks.number("x", 2)) is float
    assert type(checks.number("n", np.int64(4), integer=True)) is np.int64
    with pytest.raises(ValueError, match=r"^n must be an integer \(got 4.0\)$"):
        checks.number("n", 4.0, integer=True)
    assert checks.numbers("W", [[1, 2.5], [3]]) == [[1.0, 2.5], [3.0]]
    with pytest.raises(ValueError, match=r"^every entry of W must be a number \(got '1'\)$"):
        checks.numbers("W", [[1, "1"]])
    assert checks.object_("meta", {}) == {}
    with pytest.raises(ValueError, match=r"^meta must be an object \(got \[1\]\)$"):
        checks.object_("meta", [1])
