import ast
from pathlib import Path

import craft


def test_every_exported_name_resolves_once():
    assert len(craft.__all__) == len(set(craft.__all__))
    for name in craft.__all__:
        assert hasattr(craft, name), name


def test_only_errors_applies_the_argument_policy():
    # every other module validates integers and reals through check_int and
    # check_real, so the policy and its messages live in one place
    policy = {"is_integer", "is_finite_real"}
    package = Path(craft.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in policy:
                    callers.add(path.name)
    assert callers <= {"errors.py"}
