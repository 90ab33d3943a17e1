import ast
import re
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


def test_only_check_array_compares_array_shapes():
    # array arguments get their dtype and shape checked by one tensor helper,
    # shared by check_array, check_ids and sgd_step's gradients (a non-finite
    # gradient stays sgd_step's own DivergenceError); cli compares layer counts
    # of files it has read, a file-format check, so it is not scanned
    package = Path(craft.__file__).parent
    checkers, converters = set(), set()
    for module in ("tensor", "tucker", "adapter", "analysis", "toy"):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.If)
                        and any(isinstance(n, ast.Attribute) and n.attr == "shape"
                                for n in ast.walk(node.test))
                        and any(isinstance(n, ast.Raise) for n in node.body)):
                    checkers.add(f"{module}.{fn.name}")
                if (module == "toy" and isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == "asarray"):
                    converters.add(f"{module}.{fn.name}")
    assert checkers == {"tensor._array"}
    assert converters == set()  # the toy's token and label ids go through check_ids


def _is_q_or_v(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in ("Q", "V")


def _literal_elements(node) -> list:
    if isinstance(node, ast.Dict):
        return node.keys
    return node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else []


def test_only_toy_projections_names_the_adapted_projections():
    # toy.PROJECTIONS says which projections can be adapted and which model
    # stack each replaces; analyze's ("Q", "K", "V") names the dispersion
    # report's rows and is no such decision
    package = Path(craft.__file__).parent
    offenders, tables = [], []
    for module in ("toy", "config", "cli"):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        exempt = None
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "PROJECTIONS" for t in node.targets)):
                tables.append(module)
                exempt = node.value
            if (isinstance(node, ast.Compare)
                    and any(map(_is_q_or_v, [node.left, *node.comparators]))):
                offenders.append((module, node.lineno))
            elements = _literal_elements(node)
            if (elements and node is not exempt and all(map(_is_q_or_v, elements))
                    and {e.value for e in elements} == {"Q", "V"}):
                offenders.append((module, node.lineno))
    assert tables == ["toy"]
    assert offenders == []


def test_craft_finetune_owns_the_toys_only_exception_handler():
    # every fine-tuning step runs inside one handler that reports an overflow
    # or non-finite value as a DivergenceError with its step; the toy's
    # inputs are checked up front, so no other code there handles an error.
    # The chunk workers' handler lives in craft.parallel (test_parallel checks it)
    tree = ast.parse((Path(craft.__file__).parent / "toy.py").read_text(encoding="utf-8"))
    owner = {node: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)}
    handlers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            handlers.append((owner.get(node), sorted(map(ast.unparse, filter(None, caught)))))
    assert handlers == [("craft_finetune", ["DivergenceError", "ValidationError"])]


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module.rpartition(".")[2]


def test_only_parallel_decides_how_work_runs_in_parallel():
    # craft.parallel holds the one worker rule, the one BLAS thread hold and
    # the one place a thread or a process starts, so no other module reads
    # the CPU mask or OpenBLAS's thread count, imports threading, or names
    # Thread, fork, waitpid or prctl
    package = Path(craft.__file__).parent
    deciders = set()
    for path in package.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if (any(name in text for name in ("num_threads", "sched_getaffinity"))
                or {"threading", "Thread", "fork", "waitpid", "prctl"}
                & set(_identifiers(ast.parse(text)))):
            deciders.add(path.name)
    assert deciders == {"parallel.py"}


def _tucker_rank(node):
    """``r1`` for ``r1`` or ``ranks.r1`` (any ``r<digit>`` name), else None."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name and re.fullmatch(r"r\d", name) else None


def test_only_trainable_param_count_counts_the_j_matrices():
    # a J matrix is r_n x r_n, so squaring a Tucker rank counts one; every
    # other count (storage, the scaling table) takes it from trainable_param_count
    package = Path(craft.__file__).parent
    squarers = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.BinOp) or _tucker_rank(node.left) is None:
                    continue
                if ((isinstance(node.op, ast.Mult)
                     and _tucker_rank(node.right) == _tucker_rank(node.left))
                        or (isinstance(node.op, ast.Pow)
                            and getattr(node.right, "value", None) == 2)):
                    squarers.add(f"{path.stem}.{fn.name}")
    assert squarers == {"adapter.trainable_param_count"}
