"""craft benchmark: one workload, one run, one JSON result on the last line.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 13 --trace 0

Run it from the root of a source checkout: it imports craft from ``src/``
and fails (exit 2, no result) when that tree is missing.  A single process
acts as one caller in a closed loop: the next operation starts only after
the previous one and its check have returned.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then traced with wrappers around craft's public
functions, and prints the per-layer metrics, including the tracing overhead.
Spans go to ``.bench_out/`` and a record of each run, with the environment,
to ``.bench_out/results.jsonl``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned through the environment before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from tracing import OP_KEY, SETUP_KEY, Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("decompose", "adapt-fit", "train-toy", "checkpoint")
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_nonnegative_int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def import_craft():
    """Import craft from this checkout's ``src/``, never from an installed copy."""
    if not (SRC / "craft" / "__init__.py").is_file():
        raise SystemExit(f"error: no craft source tree at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import craft

    if Path(craft.__file__).resolve().parent != (SRC / "craft").resolve():
        raise SystemExit(f"error: imported craft from {craft.__file__}, not from {SRC}")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or ``None`` if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_version() -> dict:
    """Git commit when the checkout is a repository, and always a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        **_source_version(),
    }


class Phase:
    """Outcome of one closed-loop measurement phase."""

    def __init__(self):
        self.samples: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, i, err: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {i}: {type(err).__name__}: {err}")

    def op_median(self) -> float:
        return statistics.median(s["op"] for s in self.samples)


def measure(wl, seconds: float, tracer=None) -> Phase:
    """Run operations back to back while the next one, if it takes as long as
    the last, would end within ``seconds`` of wall time; at least one always
    runs, so a run of a workload whose single operation outlasts ``seconds``
    holds exactly one."""
    phase = Phase()
    gc.collect()
    start = perf_counter()
    i = 0
    last_ok = False
    last_s = 0.0
    while i == 0 or perf_counter() - start + last_s < seconds:
        phase.attempted += 1
        last_ok = False
        try:
            if tracer is None:
                timing = wl.op(i)
            else:
                tracer.active = True
                try:
                    timing = tracer.root(OP_KEY, i, wl.op, i)
                finally:
                    tracer.active = False
        except Exception as err:  # counted as a failed operation
            phase.fail(i, err)
        else:
            try:
                wl.check(i)
            except Exception as err:  # counted as a failed operation
                phase.fail(i, err)
            else:
                phase.samples.append(timing)
                last_ok = True
                last_s = timing["op"]
        i += 1
    try:
        wl.finish()
    except Exception as err:  # a run-wide check fails the last operation, if it passed
        if last_ok:
            phase.samples.pop()
            phase.fail(i - 1, err)
    return phase


def timed_setup(wl, tracer=None) -> float:
    t0 = perf_counter()
    if tracer is None:
        wl.setup()
    else:
        tracer.active = True
        try:
            tracer.root(SETUP_KEY, "setup", wl.setup)
        finally:
            tracer.active = False
    wl.warm_up()
    return perf_counter() - t0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_rows(rows) -> None:
    for name, value, unit, n in rows:
        print(f"  {name} = {value:.6g} {unit} (n={n})")


def run(args, sizes=None) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    import_craft()
    import workloads

    sizes = sizes or workloads.FULL
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    env = environment(args.workload, args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(work), sizes)
        setups = [timed_setup(wl) for _ in range(SETUP_REPEATS)]
        phase = measure(wl, args.seconds)
        rss = peak_rss_mb()
        phases = [phase]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                timed_setup(wl, tracer)
                traced = measure(wl, args.seconds, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for line in p.errors:
            print(f"failed {line}", file=sys.stderr)
    ok = all(p.samples for p in phases)
    op_s = [p.op_median() if p.samples else float("nan") for p in phases]
    print(f"workload {args.workload}: seed={args.seed} attempted={attempted} failed={failed}")
    named = [("error_rate", failed / attempted, "ratio", attempted),
             ("setup_s", statistics.median(setups), "s", len(setups)),
             ("peak_rss_mb", rss, "MB", 1)]
    if phase.samples:
        named += wl.report(phase.samples)
    print("untraced metrics:")
    _print_rows(named)

    if args.trace:
        metrics = layer_metrics(tracer, op_s[0], op_s[1])
        shares = {k.split(".")[0]: round(v["value"], 3) for k, v in metrics.items()
                  if k.endswith(".self_share") and v["value"] > 0}
        print(f"traced: op_s={op_s[1]:.6g} s overhead={metrics['trace.overhead_pct']['value']:.3g} % "
              f"self shares {shares}")
    else:
        values = {"setup_s": statistics.median(setups), "op_s": op_s[0], "peak_rss_mb": rss}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0 and ok, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"environment": env, "trace": args.trace, "seconds": args.seconds,
              "named": [list(r) for r in named], **result}
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return result


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args, sizes)
    except SystemExit as err:
        print(err, file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
