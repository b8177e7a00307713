#!/usr/bin/env python3
"""End-to-end benchmark of the statecone command line.

Runs one workload through ``statecone.cli.main`` in this process, with
one closed-loop client, and checks every report against the independent
reference in ``reference.py``.  Usage, from the repository root:

    python3 bench/run.py --workload mono-complex --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
``batch_s``, ``setup_s`` and ``peak_rss_mb`` with ``--trace 0``, the
per-layer metrics of ``spans.py`` with ``--trace 1``.  Details go to
``bench/out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MONO_TRIALS = 24       # one catalog cycle: 8 catalog + 16 random channels
SEPAROID_TRIALS = 4    # one cycle: every fourth trial is a pure state
ENTROPY_SAMPLES = 200
SETUP_PROBES = 8       # fresh interpreters per run
TRACE_ROUNDS = 3
PROBE_TIMEOUT_S = 120
# Times are reported at the speed at which the calibration kernel takes
# this long.  On a shared virtual machine the CPU speed can drift by
# 30-50% within one run; the ratio of operation to calibration time
# moves far less.
CAL_REFERENCE_S = 1e-3


class BenchError(Exception):
    """The benchmark cannot run here (missing or foreign statecone)."""


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def import_cli():
    """Import ``statecone.cli`` from this checkout's ``src/`` only."""
    if not (SRC / "statecone" / "__init__.py").is_file():
        raise BenchError(f"no statecone package under {SRC}")
    sys.path.insert(0, str(SRC))
    import statecone
    from statecone import cli

    where = Path(statecone.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"statecone resolved to {where}, not under {SRC}")
    return cli


def _blas_threads():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(cli) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "statecone": str(Path(cli.__file__).resolve().parent.relative_to(ROOT)),
        "statecone_version": cli.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------
#
# An operation maker takes a fresh seed and the input directory and
# returns the CLI argv plus a check of the report.  Every repeat gets a
# new seed, so no result can be reused across repeats.


def _write(work: Path, name: str, doc: dict) -> str:
    path = work / name
    path.write_text(json.dumps(doc))
    return str(path)


def suite_op(prop: str, algebra: str, trials: int):
    def make(seed, work):
        argv = ["suite", "--property", prop, "--generator", "neg-entropy",
                "--algebra", algebra, "--trials", str(trials),
                "--seed", str(seed)]
        return argv, lambda r: ref.check_suite(
            r, trials, random_channels=prop == "mono")
    return make


def entropy_op(letter: str, n: int):
    kind = ref.KINDS[letter]

    def make(seed, work):
        rep = ref.random_rep(kind, n, np.random.default_rng(seed))
        path = _write(work, f"entropy-{letter}{n}.json",
                      ref.state_doc(kind, n, rep))
        want = ref.entropy(kind, rep)
        argv = ["entropy", "--state", path, "--samples",
                str(ENTROPY_SAMPLES), "--seed", str(seed)]
        return argv, lambda r: ref.check_entropy(r, want, ENTROPY_SAMPLES)
    return make


def divergence_op(n: int):
    def make(seed, work):
        rng = np.random.default_rng(seed)
        rho, sigma = (ref.random_rep("complex", n, rng) for _ in range(2))
        paths = [_write(work, f"divergence-{name}.json",
                        ref.state_doc("complex", n, m))
                 for name, m in (("rho", rho), ("sigma", sigma))]
        want = ref.relative_entropy(rho, sigma)
        argv = ["divergence", "--rho", paths[0], "--sigma", paths[1]]
        return argv, lambda r: ref.check_divergence(r, want)
    return make


def information_op(command: str, letter: str, sizes: tuple[int, ...]):
    kind = ref.KINDS[letter]
    n = int(np.prod(sizes))
    label = letter + "x".join(map(str, sizes))

    def make(seed, work):
        rep = ref.random_rep(kind, n, np.random.default_rng(seed))
        path = _write(work, f"{command}-{label}.json",
                      ref.state_doc(kind, n, rep, sizes))
        if command == "mi":
            want = ref.mutual_information(kind, rep, sizes, [0], [1, 2])
            argv = ["mi", "--state", path, "--a", "A", "--b", "B,C"]
            return argv, lambda r: ref.check_mi(r, want)
        want = ref.conditional_mutual_information(
            kind, rep, sizes, [0], [1], [2])
        argv = ["cmi", "--state", path, "--a", "A", "--b", "B", "--c", "C"]
        return argv, lambda r: ref.check_cmi(r, want)
    return make


def chsh_op(seed, work):
    argv = ["chsh", "--box", "quantum-opt", "--seed", str(seed)]
    return argv, ref.check_chsh


# workload -> (operations of one batch, the small set-up operation)
WORKLOADS = {
    "mono-complex": (
        {"mono-C3": suite_op("mono", "C3", MONO_TRIALS),
         "mono-C4": suite_op("mono", "C4", MONO_TRIALS)},
        suite_op("mono", "C3", 3),
    ),
    "separoid-qubits": (
        {"separoid-C2x2x2x2": suite_op("separoid", "C2x2x2x2",
                                       SEPAROID_TRIALS)},
        suite_op("separoid", "C2x2x2x2", 1),
    ),
    "oneshot-files": (
        {**{f"entropy-{letter}{n}": entropy_op(letter, n)
            for letter, n in (("R", 3), ("C", 3), ("C", 4), ("H", 2),
                              ("S", 3), ("P", 4))},
         "divergence-C4": divergence_op(4),
         "mi-C2x2x2": information_op("mi", "C", (2, 2, 2)),
         "mi-P2x3x2": information_op("mi", "P", (2, 3, 2)),
         "cmi-C2x2x2": information_op("cmi", "C", (2, 2, 2)),
         "cmi-P2x3x2": information_op("cmi", "P", (2, 3, 2)),
         "chsh-quantum-opt": chsh_op},
        entropy_op("C", 3),
    ),
}


# input streams, so warm-up, probes and traced rounds get fresh inputs
TIMED, WARMUP, PROBE, TRACED = range(4)


def op_seed(seed: int, stream: int, round_index: int, op_index: int) -> int:
    """The seed of one repeat of one operation, fixed by the run seed."""
    state = np.random.SeedSequence([seed, stream, round_index, op_index])
    return int(state.generate_state(1)[0])


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


_CAL_MATRIX = np.random.default_rng(0).normal(size=(8, 8))
_CAL_MATRIX = _CAL_MATRIX + _CAL_MATRIX.T


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter-bound and LAPACK-bound work
    of the kinds statecone does: three Jacobi-like sweeps of Givens
    rotations on an 8 x 8 matrix, then 20 ``eigvalsh`` calls on 16 x 16
    complex matrices.  It is the benchmark's own code, so no change to
    the program moves it.  About 3 ms."""
    start = time.perf_counter()
    a = _CAL_MATRIX.copy()
    for _ in range(3):
        for p in range(7):
            for q in range(p + 1, 8):
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rp, rq = a[p].copy(), a[q].copy()
                a[p], a[q] = c * rp - s * rq, s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p], a[:, q] = c * cp - s * cq, s * cp + c * cq
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        np.linalg.eigvalsh(g @ g.conj().T)
    return time.perf_counter() - start


class Run:
    """Counts, timings and problems of one benchmark run.

    Every timed operation is bracketed by runs of the calibration kernel;
    a sample is (operation seconds, mean of the two calibrations), whose
    ratio moves far less with the machine's speed than either time.
    """

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.attempted = 0
        self.failures = []
        self.problems = []
        self.calibrations = []

    def _record(self, name: str, argv, failure, problems) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{name} failed: {failure} ({argv})")
        self.problems.extend(f"{name}: {p} ({argv})" for p in problems)

    def calibrate(self) -> float:
        c = calibration_kernel()
        self.calibrations.append(c)
        return c

    def op(self, name: str, make, seed: int, before: float):
        """Run one CLI operation in process; return its sample or None."""
        argv, check = make(seed, self.work)
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:
            self._record(name, argv, f"{type(exc).__name__}: {exc}", [])
            return None
        elapsed = time.perf_counter() - start
        self._record(name, argv, *judge(code, buf.getvalue(), check))
        return elapsed, 0.5 * (before + self.calibrate())

    def round(self, ops: dict, seed: int, stream: int, round_index: int,
              tracer=None) -> dict:
        gc.collect()
        samples = {}
        for k, (name, make) in enumerate(ops.items()):
            if tracer is not None:
                tracer.op += 1
            before = self.calibrations[-1] if k else self.calibrate()
            samples[name] = self.op(
                name, make, op_seed(seed, stream, round_index, k), before)
        return samples

    def probe(self, make, seed: int):
        """Time a fresh interpreter importing statecone.cli and running
        one small operation; return its sample or None."""
        argv, check = make(seed, self.work)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from statecone import cli; "
                "sys.exit(cli.main(sys.argv[2:]))")
        before = self.calibrate()
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c", code, str(SRC), *argv],
                cwd=ROOT, capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self._record("setup", argv, "timed out", [])
            return None
        elapsed = time.perf_counter() - start
        self._record("setup", argv, *judge(done.returncode, done.stdout, check))
        return elapsed, 0.5 * (before + self.calibrate())


def judge(code, stdout: str, check):
    """(failure, problems) of one finished operation."""
    if code not in (0, 1):
        return f"exit code {code}", []
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return None, [f"unreadable report: {exc}"]
    problems = check(report)
    if code != 0:
        problems.append(f"exit code {code}")
    return None, problems


def seconds_at_reference(samples) -> float:
    """Median over repeats of operation time / bracketing calibration
    time, in seconds on a machine where the calibration kernel takes
    ``CAL_REFERENCE_S``."""
    return CAL_REFERENCE_S * statistics.median(
        t / c for t, c in filter(None, samples))


def batch_seconds(per_op: dict) -> float:
    return sum(seconds_at_reference(samples) for samples in per_op.values())


def timed_loop(run: Run, workload: str, seed: int, seconds: float,
               probes: int) -> dict:
    """Warm up, then repeat whole rounds until ``seconds`` of rounds have
    run, with ``probes`` set-up probes spread evenly between them."""
    ops, probe_make = WORKLOADS[workload]
    run.round(ops, seed, WARMUP, 0)
    per_op = {name: [] for name in ops}
    setup = []
    spent = 0.0
    round_index = 0
    while spent < seconds or len(setup) < probes:
        if spent < seconds or round_index == 0:
            start = time.perf_counter()
            for name, sample in run.round(ops, seed, TIMED,
                                          round_index).items():
                per_op[name].append(sample)
            spent += time.perf_counter() - start
            round_index += 1
        if len(setup) < probes and spent >= len(setup) * seconds / probes:
            setup.append(run.probe(probe_make,
                                   op_seed(seed, PROBE, len(setup), 0)))
    return {"per_op": per_op, "setup": setup, "rounds": round_index}


def traced_rounds(run: Run, workload: str, seed: int):
    """Run the traced rounds; return the tracer, the samples per operation
    and the factor that takes the traced wall times to the reference
    speed."""
    ops, _ = WORKLOADS[workload]
    per_op = {name: [] for name in ops}
    first = len(run.calibrations)
    with Tracer() as tracer:
        for i in range(TRACE_ROUNDS):
            for name, sample in run.round(ops, seed, TRACED, i,
                                          tracer).items():
                per_op[name].append(sample)
    speed = CAL_REFERENCE_S / statistics.median(run.calibrations[first:])
    return tracer, per_op, speed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_summary(per_op: dict) -> dict:
    return {
        name: {"repeats": len(samples),
               "seconds": seconds_at_reference(samples),
               "median_s": statistics.median(
                   t for t, _ in filter(None, samples)),
               "samples": samples}
        for name, samples in per_op.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        cli = import_cli()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    info = provenance(cli)
    print(f"statecone bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in info.items()))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"inputs-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(cli, work)
        timed = timed_loop(run, args.workload, args.seed, args.seconds,
                           0 if args.trace else SETUP_PROBES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        batch_s = batch_seconds(timed["per_op"])
        detail = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "provenance": info,
                  "rounds": timed["rounds"], "batch_s": batch_s,
                  "calibration_median_s": statistics.median(run.calibrations),
                  "ops": op_summary(timed["per_op"])}
        if args.trace:
            tracer, traced, speed = traced_rounds(run, args.workload,
                                                  args.seed)
            n_ops = TRACE_ROUNDS * len(traced)
            metrics = tracer.layer_metrics(n_ops, speed)
            traced_batch = batch_seconds(traced)
            detail.update({
                "traced_ops": n_ops,
                "traced_batch_s": traced_batch,
                "tracing_overhead": traced_batch / batch_s - 1.0,
                "absent": tracer.absent,
                "layers": tracer.table(),
                "spans": {"fields": ["op", "name", "parent", "start_ns",
                                     "end_ns", "self_ns"],
                          "rows": tracer.spans},
            })
            print(f"traced {n_ops} operations: tracing overhead "
                  f"{100 * detail['tracing_overhead']:+.1f}% of batch_s; "
                  f"absent: {', '.join(tracer.absent) or 'none'}")
        else:
            metrics = {
                "batch_s": metric(batch_s, "s"),
                "setup_s": metric(seconds_at_reference(timed["setup"]), "s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
            }
            detail["setup_probes_s"] = timed["setup"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, s in detail["ops"].items():
        print(f"op {name}: {s['repeats']} repeats, {s['seconds']:.4f} s "
              f"at reference speed, median {s['median_s']:.4f} s as run")
    for problem in (run.failures + run.problems)[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    detail["result"] = result
    detail["failures"] = run.failures
    detail["problems"] = run.problems
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail))
    print(" | ".join(f"{k} {v['value']:.6g} {v['unit']}"
                     for k, v in metrics.items()) if not args.trace
          else f"{len(metrics)} per-layer metrics in bench/out/{name}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
