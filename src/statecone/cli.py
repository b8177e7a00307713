"""Command-line entry point.

Every run prints a single JSON report with the command, the effective
configuration (including seeds and tolerances), the results payload and,
for suites and the audit, a pass flag.  Identical configurations
reproduce identical reports.  Each subcommand returns its configuration
and results (and pass flag); :func:`main` builds and prints the report.
Exit codes: 0 success, 1 when the report's pass flag is false, 2 usage
or input errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import boxes as bx
from . import bregman as br
from . import entropy as en
from . import multipartite as mp
from . import serialize as sz
from . import states as st

LN2 = math.log(2.0)


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _scrub(value):
    """Make a payload JSON-clean: tuples to lists, numpy to python,
    non-finite floats to strings."""
    if isinstance(value, dict):
        return {str(k): _scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _scrub(value.tolist())
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _emit(report: dict, pretty: bool) -> None:
    """Print a :func:`_report`, whose payloads are already JSON-clean."""
    indent = 2 if pretty else None
    try:
        print(json.dumps(report, sort_keys=True, indent=indent))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (``statecone ... | head``).  Point stdout at
        # the null device so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report(command: str, config: dict, results, passed=None) -> dict:
    doc = {
        "command": command,
        "config": _scrub(config),
        "results": _scrub(results),
        "version": __version__,
    }
    if passed is not None:
        doc["pass"] = bool(passed)
    return doc


def _load(path: str):
    try:
        return sz.load_json(path)
    except FileNotFoundError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(
            f"malformed JSON in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc


def _generator(name: str) -> br.BregmanGenerator:
    factories = {
        "neg-entropy": br.neg_entropy,
        "trace-power-2": lambda: br.trace_power(2),
        "trace-power-3": lambda: br.trace_power(3),
    }
    if name not in factories:
        raise CliError(
            f"unknown generator {name!r}; pick one of {sorted(factories)}"
        )
    return factories[name]()


def _maybe_bits(value: float, bits: bool) -> float:
    if not bits or not math.isfinite(value):
        return value
    return value / LN2


# ---------------------------------------------------------------------------
# subcommands: each returns the arguments of :func:`_report` after the
# command: its configuration, its results and, for suites and the
# audit, its pass flag
# ---------------------------------------------------------------------------


def _check_at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise CliError(f"{name} must be at least 1, got {value}")


def _cmd_entropy(args):
    _check_at_least_one("--samples", args.samples)
    state = sz.state_from_json(_load(args.state))
    report = en.fine_grained_entropy_bound(
        state, n_samples=args.samples, seed=args.seed
    )
    values = report.as_dict()
    if args.bits:
        for key in ("spectral", "decomposition", "fine_grained_upper",
                    "fine_grained_lower"):
            values[key] = values[key] / LN2
    return ({"state": args.state, "samples": args.samples,
             "seed": args.seed, "bits": args.bits}, values)


def _cmd_divergence(args):
    rho = sz.state_from_json(_load(args.rho))
    sigma = sz.state_from_json(_load(args.sigma))
    F = _generator(args.generator)
    value = br.bregman_divergence(F, rho, sigma)
    return ({"rho": args.rho, "sigma": args.sigma,
             "generator": args.generator, "bits": args.bits},
            {"divergence": _maybe_bits(value, args.bits)})


def _parse_labels(raw: str) -> list[str]:
    labels = [part.strip() for part in raw.split(",") if part.strip()]
    if not labels:
        raise CliError(f"empty label set {raw!r}")
    return labels


def _partitioned(path: str) -> mp.PartitionedState:
    state = sz.state_from_json(_load(path))
    if state.layout is None:
        raise CliError("the state file carries no composite layout")
    labels = tuple(
        chr(ord("A") + i) for i in range(len(state.layout.factors))
    )
    return mp.PartitionedState(state, labels)


def _cmd_mi(args):
    pstate = _partitioned(args.state)
    F = _generator(args.generator)
    value = mp.mutual_information(
        F, pstate, _parse_labels(args.a), _parse_labels(args.b)
    )
    return ({"state": args.state, "a": args.a, "b": args.b,
             "generator": args.generator, "bits": args.bits},
            {"mutual_information": _maybe_bits(value, args.bits)})


def _cmd_cmi(args):
    pstate = _partitioned(args.state)
    F = _generator(args.generator)
    report = mp.conditional_mutual_information(
        F, pstate, _parse_labels(args.a), _parse_labels(args.b),
        _parse_labels(args.c),
    )
    payload = report.as_dict()
    if args.bits and report.defined:
        payload["value"] = payload["value"] / LN2
        payload["components"] = [c / LN2 for c in payload["components"]]
    return ({"state": args.state, "a": args.a, "b": args.b, "c": args.c,
             "generator": args.generator, "bits": args.bits}, payload)


# property -> (factors the algebra spec needs, None for a simple
# algebra; the suite run).  Suites are looked up on their modules at call
# time, so wrappers installed there by profilers apply.
_SUITES = {
    "mono": (None, lambda F, algebra, layout, **kw:
             br.check_monotonicity(F, algebra, **kw)),
    "suff": (None, lambda F, algebra, layout, **kw:
             br.check_sufficiency(F, algebra, **kw)),
    "local": (None, lambda F, algebra, layout, **kw:
              br.check_statistical_locality(F, algebra, **kw)),
    "identity": (None, lambda F, algebra, layout, **kw:
                 br.check_identity(F, algebra, **kw)),
    "additivity": (2, lambda F, algebra, layout, **kw:
                   mp.run_additivity_suite(F, layout, **kw)),
    "marginal": (2, lambda F, algebra, layout, **kw:
                 mp.run_marginal_identity_suite(F, layout, **kw)),
    "separoid": (4, lambda F, algebra, layout, **kw:
                 mp.check_separoid(F, layout.embedding, layout.sizes, **kw)),
    "dpi": (2, lambda F, algebra, layout, **kw:
            mp.run_dpi_suite(F, layout, **kw)),
}


def _cmd_suite(args):
    _check_at_least_one("--trials", args.trials)
    algebra, layout = sz.parse_algebra_spec(args.algebra)
    F = _generator(args.generator)
    n_factors, run = _SUITES[args.property]
    if n_factors is not None:
        if layout is None:
            raise CliError(
                f"property {args.property!r} needs a composite algebra "
                f"spec such as C2x2"
            )
        if len(layout.factors) != n_factors:
            raise CliError(
                f"property {args.property!r} needs {n_factors} factors"
            )
    kwargs = {"n_trials": args.trials, "seed": args.seed}
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise CliError(
                f"--tol must be a finite number >= 0, got {args.tol!r}"
            )
        if args.property == "separoid":
            raise CliError(
                "--tol does not apply to separoid, which judges with fixed "
                "tolerances: " + ", ".join(
                    f"{check} {tol:g}"
                    for check, tol in mp.SEPAROID_TOLS.items())
            )
        kwargs["tol"] = args.tol

    verdicts = run(F, algebra, layout, **kwargs)
    if isinstance(verdicts, br.PropertyVerdict):
        verdicts = {verdicts.property: verdicts}
    return ({"property": args.property, "generator": args.generator,
             "algebra": args.algebra, "trials": args.trials,
             "seed": args.seed, "tol": args.tol},
            {key: v.as_dict() for key, v in verdicts.items()},
            all(v.passed for v in verdicts.values()))


def _cmd_explore(args):
    _check_at_least_one("--generators", args.generators)
    _check_at_least_one("--trials", args.trials)
    return ({"generators": args.generators, "trials": args.trials,
             "seed": args.seed},
            br.explore_additivity_conjecture(
                n_generators=args.generators, n_trials=args.trials,
                seed=args.seed))


def _cmd_chsh(args):
    _check_at_least_one("--restarts", args.restarts)
    if args.box in ("pr", "white"):
        box = bx.pr_box() if args.box == "pr" else bx.white_noise_box()
        results = {"chsh": bx.chsh_value(box)}
    elif args.box == "deterministic":
        values = [
            bx.chsh_value(bx.deterministic_box(fa, fb))
            for fa in itertools.product((0, 1), repeat=2)
            for fb in itertools.product((0, 1), repeat=2)
        ]
        box = None
        results = {"chsh": max(values), "all_values": values}
    else:
        value, strategy = bx.maximize_quantum_chsh(
            seed=args.seed, restarts=args.restarts
        )
        box = bx.box_from_quantum(strategy)
        results = {
            "chsh": value,
            "alice_angles": list(strategy.alice_angles),
            "bob_angles": list(strategy.bob_angles),
        }
    if box is not None:
        results["no_signaling_residual"] = box.no_signaling_residual()
        if args.table:
            results["table"] = box.table.tolist()
    return ({"box": args.box, "seed": args.seed,
             "restarts": args.restarts}, results)


def _cmd_audit_example1(args):
    _check_at_least_one("--samples", args.samples)
    audit = st.real_embedding_dimension_audit(
        n_samples=args.samples, seed=args.seed
    )
    return ({"samples": args.samples, "seed": args.seed}, audit,
            audit == {"ambient_state_dim": 9, "product_slice_dim": 8})


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as :class:`CliError`, so that :func:`main`
    reports them as JSON with exit code 2; ``--help`` and ``--version``
    still exit 0."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds streams with non-negative
    integers only."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {seed}")
    return seed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Every default is immutable
    and each parse fills a fresh namespace, so calls share nothing."""
    parser = _Parser(
        prog="statecone",
        description="entropy, divergences and information quantities on "
                    "Jordan-algebra state spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON report")
        p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("entropy", help="entropy report for a state file")
    common(p)
    p.add_argument("--state", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--bits", action="store_true",
                   help="report in bits instead of nats")

    p = sub.add_parser("divergence", help="divergence between two states")
    common(p)
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--generator", default="neg-entropy")
    p.add_argument("--bits", action="store_true")

    p = sub.add_parser("mi", help="mutual information between label sets")
    common(p)
    p.add_argument("--state", required=True)
    p.add_argument("--a", required=True, help="comma-separated labels")
    p.add_argument("--b", required=True)
    p.add_argument("--generator", default="neg-entropy")
    p.add_argument("--bits", action="store_true")

    p = sub.add_parser("cmi", help="conditional mutual information")
    common(p)
    p.add_argument("--state", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--generator", default="neg-entropy")
    p.add_argument("--bits", action="store_true")

    p = sub.add_parser("suite", help="randomized property suite")
    common(p)
    p.add_argument("--property", required=True, choices=tuple(_SUITES))
    p.add_argument("--generator", default="neg-entropy")
    p.add_argument("--algebra", default="C3",
                   help="algebra spec, e.g. C2, R4, H2, S3, P4, C2x4")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--tol", type=float, default=None,
                   help="override the property's default tolerance")

    p = sub.add_parser("explore", help="monotone-vs-additive generator scan")
    common(p)
    p.add_argument("--generators", type=int, default=50)
    p.add_argument("--trials", type=int, default=40)

    p = sub.add_parser("chsh", help="CHSH value of a named box")
    common(p)
    p.add_argument("--box", required=True,
                   choices=("pr", "white", "deterministic", "quantum-opt"))
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--table", action="store_true",
                   help="include the full probability table")

    p = sub.add_parser(
        "audit-example1",
        help="affine dimensions of the 4x4 real body vs its product slice",
    )
    common(p)
    p.add_argument("--samples", type=int, default=80)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # looked up on each call, so wrappers installed on this module apply
        command = {
            "entropy": _cmd_entropy,
            "divergence": _cmd_divergence,
            "mi": _cmd_mi,
            "cmi": _cmd_cmi,
            "suite": _cmd_suite,
            "explore": _cmd_explore,
            "chsh": _cmd_chsh,
            "audit-example1": _cmd_audit_example1,
        }[args.subcommand]
        report = _report(args.subcommand, *command(args))
        _emit(report, args.pretty)
        return 0 if report.get("pass", True) else 1
    except (CliError, ValueError, KeyError) as exc:
        # every library error (format, mismatch, validation, unsupported
        # algebra, overlap) is a ValueError
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
