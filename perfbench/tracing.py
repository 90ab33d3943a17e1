"""Per-layer tracing from outside the library.

``install`` wraps the public functions of each traced craft module and
rebinds every name under which a craft module imported them (for example
``craft.tucker.truncated_svd`` or ``craft.toy.grad_j``), so nested calls
between modules are seen too.  Nothing under ``src/`` is changed; the
wrappers are removed again by ``uninstall``.

Each call records one span ``[key, start, end, parent, op, extra, raised]``
in memory.  Spans of one benchmark operation share its ``op`` id.  The spans
are written out once, when the run ends, and ``layer_metrics`` derives the
per-layer metrics from them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("linalg", "tensor", "tucker", "adapter", "toy", "serialization", "cli")

# span keys of the benchmark's own root spans
OP_KEY = "bench.op"
SETUP_KEY = "bench.setup"

# function key -> extra groups it also counts in, beside its own key
GROUPS = {
    "tensor.tensor3": ("tensor.validate",),
    "tensor.matrix": ("tensor.validate",),
    "tensor.unfold": ("tensor.unfold_fold",),
    "tensor.fold": ("tensor.unfold_fold",),
    "serialization.write_tensor3": ("serialization.write",),
    "serialization.write_matrix": ("serialization.write",),
    "serialization.write_tucker_factors": ("serialization.write",),
    "serialization.write_craft_adapter": ("serialization.write",),
    "serialization.read_file": ("serialization.read",),
    "serialization.read_kind": ("serialization.read",),
    "serialization.read_tensor3": ("serialization.read",),
    "serialization.read_matrix": ("serialization.read",),
    "serialization.read_tucker_factors": ("serialization.read",),
    "serialization.read_craft_adapter": ("serialization.read",),
}


def _nbytes(data) -> int:
    return int(getattr(data, "nbytes", 0))


def _mode_product_flops(t, u, mode) -> int:
    # (J x I_n) times the mode-n unfolding (I_n x prod of the other extents)
    rows, inner = u.shape
    other = t.size // inner if inner else 0
    return 2 * rows * inner * other


def _path_size(path):
    try:
        return (os.fspath(path), os.path.getsize(path))
    except (OSError, TypeError):
        return (str(path), 0)


# function key -> extra recorded from the call's arguments, before the call
EXTRAS = {
    "tensor.tensor3": lambda data, *a, **k: _nbytes(data),
    "tensor.matrix": lambda data, *a, **k: _nbytes(data),
    "tensor.mode_n_product": lambda t, u, mode, *a, **k: _mode_product_flops(t, u, mode),
    "serialization.crc64": lambda data, *a, **k: len(data),
    "serialization.atomic_write": lambda path, blob, *a, **k: len(blob),
}
for _key, _groups in GROUPS.items():
    if "serialization.read" in _groups:
        EXTRAS[_key] = lambda path, *a, **k: _path_size(path)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.keys: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.active = False
        self._patched: list[tuple] = []
        self._index: dict[str, int] = {}

    def key_index(self, key: str) -> int:
        if key not in self._index:
            self._index[key] = len(self.keys)
            self.keys.append(key)
        return self._index[key]

    def call(self, key_idx: int, fn, args, kwargs, extra_fn=None):
        if not self.active:
            return fn(*args, **kwargs)
        extra = extra_fn(*args, **kwargs) if extra_fn is not None else None
        rec = [key_idx, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, extra, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[6] = True
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def root(self, key: str, op, fn, *args):
        """Run ``fn(*args)`` as a root span of operation ``op``."""
        self.op = op
        try:
            return self.call(self.key_index(key), fn, args, {})
        finally:
            self.op = None

    def install(self) -> None:
        wrappers = {}
        for name in MODULES:
            mod = importlib.import_module(f"craft.{name}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(f"{name}.{attr}", fn))
        for modname in [m for m in sys.modules if m == "craft" or m.startswith("craft.")]:
            mod = sys.modules[modname]
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, key: str, fn):
        idx = self.key_index(key)
        extra_fn = EXTRAS.get(key)

        def wrapper(*args, **kwargs):
            return self.call(idx, fn, args, kwargs, extra_fn)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (k, start, end, parent, op, _extra, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.keys[k], "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "raised": raised}) + "\n")


def _stats(prefix, stats):
    units = {"calls": "count", "busy_s": "s", "self_s": "s", "max_s": "s", "gflop": "GFLOP",
             "mb": "MB", "mb_per_s": "MB/s", "steps": "count"}
    return [(f"{prefix}.{s}", units[s], "higher" if s == "mb_per_s" else "lower")
            for s in stats]


# (name, unit, better) of every per-layer metric, in print order
PER_LAYER = (
    _stats("linalg.truncated_svd", ("calls", "busy_s", "max_s"))
    + _stats("tensor.mode_n_product", ("calls", "busy_s", "gflop"))
    + _stats("tensor.unfold_fold", ("calls", "busy_s"))
    + _stats("tensor.validate", ("calls", "busy_s", "mb"))
    + _stats("tucker.hosvd", ("busy_s", "self_s"))
    + _stats("tucker.expand", ("calls", "busy_s"))
    + _stats("tucker.reconstruct", ("calls", "busy_s"))
    + _stats("tucker.approximation_error", ("busy_s",))
    + _stats("adapter.init_adapter", ("busy_s",))
    + _stats("adapter.adapted_tensor", ("calls", "busy_s"))
    + _stats("adapter.grad_j", ("calls", "busy_s"))
    + _stats("adapter.sgd_step", ("calls", "busy_s"))
    + _stats("toy.loss_and_grads", ("calls", "busy_s", "self_s"))
    + _stats("toy.forward", ("calls", "busy_s"))
    + _stats("toy.pretrain", ("busy_s", "steps"))
    + _stats("toy.craft_finetune", ("busy_s",))
    + _stats("toy.head_only_finetune", ("busy_s",))
    + _stats("toy.make_dataset", ("calls", "busy_s"))
    + _stats("toy.evaluate", ("busy_s",))
    + _stats("serialization.crc64", ("calls", "mb", "busy_s", "mb_per_s"))
    + _stats("serialization.atomic_write", ("calls", "mb", "busy_s"))
    + _stats("serialization.write", ("busy_s", "self_s"))
    + _stats("serialization.read", ("busy_s", "self_s"))
    + _stats("serialization.read_kind", ("calls",))
    + [("serialization.crc_bytes_per_io_byte", "ratio", "lower")]
    + _stats("cli.main", ("busy_s", "self_s"))
    + [(f"{m}.errors", "count", "lower") for m in MODULES]
    + [(f"{m}.self_share", "ratio", "lower") for m in MODULES + ("bench",)]
    + [("trace.spans", "count", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.overhead_pct", "%", "lower")]
)


def layer_metrics(tracer: Tracer, untraced_op_s: float, traced_op_s: float) -> dict:
    """Per-layer metrics from the recorded spans, keyed by ``PER_LAYER`` name.

    Function statistics cover every traced span, set-up included.  Module
    self shares, as a fraction of the operations' wall time, and the CRC
    waste ratio cover the spans of timed operations only.
    """
    keys, spans = tracer.keys, tracer.spans
    n = len(spans)
    groups = [(keys[k],) + GROUPS.get(keys[k], ()) for k, *_ in spans]
    child_s = [0.0] * n
    for start_end in spans:
        parent = start_end[3]
        if parent >= 0:
            child_s[parent] += start_end[2] - start_end[1]

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    longest = defaultdict(float)
    extra = defaultdict(float)
    errors = defaultdict(int)
    module_self = defaultdict(float)
    op_wall = 0.0
    pretrain_steps = 0
    op_bytes = defaultdict(float)
    read_paths = defaultdict(dict)
    for i, (k, start, end, parent, op, ext, raised) in enumerate(spans):
        dur = end - start
        own = dur - child_s[i]
        module = keys[k].split(".", 1)[0]
        if raised:
            errors[module] += 1
        if keys[k] == OP_KEY:
            op_wall += dur
        in_op = op is not None and op != "setup"
        if in_op:
            module_self[module] += own
            if keys[k] in ("serialization.crc64", "serialization.atomic_write"):
                op_bytes[keys[k]] += ext
            elif "serialization.read" in groups[i]:
                read_paths[op][ext[0]] = ext[1]
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(p)
            p = spans[p][3]
        above = {g for a in ancestors for g in groups[a]}
        for g in groups[i]:
            calls[g] += 1
            self_s[g] += own
            longest[g] = max(longest[g], dur)
            if g not in above:
                busy[g] += dur
            if isinstance(ext, (int, float)):
                extra[g] += ext
        if keys[k] == "toy.loss_and_grads" and any(keys[spans[a][0]] == "toy.pretrain"
                                                   for a in ancestors):
            pretrain_steps += 1

    io_bytes = op_bytes["serialization.atomic_write"] + sum(
        size for paths in read_paths.values() for size in paths.values())
    crc_mb = extra["serialization.crc64"] / 1e6
    special = {
        "tensor.mode_n_product.gflop": extra["tensor.mode_n_product"] / 1e9,
        "tensor.validate.mb": extra["tensor.validate"] / 1e6,
        "toy.pretrain.steps": pretrain_steps,
        "serialization.crc64.mb": crc_mb,
        "serialization.crc64.mb_per_s": (crc_mb / busy["serialization.crc64"]
                                         if busy["serialization.crc64"] > 0 else 0.0),
        "serialization.atomic_write.mb": extra["serialization.atomic_write"] / 1e6,
        "serialization.crc_bytes_per_io_byte": (op_bytes["serialization.crc64"] / io_bytes
                                                if io_bytes > 0 else 0.0),
        "trace.spans": n,
        "trace.overhead_s": traced_op_s - untraced_op_s,
        "trace.overhead_pct": 100.0 * (traced_op_s - untraced_op_s) / untraced_op_s,
    }
    stat_tables = {"calls": calls, "busy_s": busy, "self_s": self_s, "max_s": longest}
    out = {}
    for name, unit, _better in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".errors"):
            value = errors[name.rsplit(".", 1)[0]]
        elif name.endswith(".self_share"):
            value = module_self[name.rsplit(".", 1)[0]] / op_wall if op_wall > 0 else 0.0
        else:
            group, stat = name.rsplit(".", 1)
            value = stat_tables[stat][group]
        out[name] = {"value": value, "unit": unit}
    return out
