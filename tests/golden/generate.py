"""Write the golden CLI reports that ``tests/test_golden.py`` replays.

Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py

The state files under ``states/`` are inputs: they are written once,
from fixed seeds, and kept as they are when present, so a later change
to the random state samplers does not change them.  Every case that
``expected.json`` does not hold yet is then run through
``statecone.cli.main`` in this process, and its exit code and parsed
JSON output (the report on stdout, or the error on stderr) are added to
the file.  Committed entries are kept as they are, except those whose
argv is listed in ``REGENERATE``: list an entry there only when a change
means to alter its report, and say in ``CHANGES.md`` which entries
changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from functools import partial
from pathlib import Path

from statecone import serialize as sz
from statecone import states as st
from statecone.cli import main as cli_main

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# argvs whose committed entries are run again and rewritten; each one is
# named with its reason in CHANGES.md
REGENERATE = []

# (file stem, algebra, seed of its full-rank and pure states)
ALGEBRAS = [
    ("R3", {"type": "real", "n": 3}, 31),
    ("C2", {"type": "complex", "n": 2}, 32),
    ("C4", {"type": "complex", "n": 4}, 33),
    ("H2", {"type": "quaternion", "n": 2}, 34),
    ("S3", {"type": "spin", "n": 3}, 35),
    ("P4", {"type": "classical", "n": 4}, 36),
]
SHAPES = ("full", "pure", "mixed")
# sample counts with their seeds; 1500 spans two sampling chunks
SAMPLES = ((1, 5), (200, 0), (1500, 9))
DIRECT_SUM = {
    "algebra": [{"type": "complex", "n": 2}, {"type": "classical", "n": 2}],
    "coeffs": [0.3, 0.2, 0.05, -0.02, 0.3, 0.2],
    "kind": "state",
}
# seed of a full-rank random state on the direct sum's algebra
DIRECT_SUM_SEED = 39
# (rho shape, sigma shape) of the divergence cases; a pure reference
# under a full-rank state gives an infinite divergence
DIVERGENCE_PAIRS = (("full", "mixed"), ("pure", "full"), ("full", "pure"))
# (property, trials, algebras, seeds) of the channel-suite cases
CHANNEL_SUITES = (
    ("mono", 24, ("C2", "C3", "C4", "R3", "H2", "S3", "P3"), range(5)),
    ("suff", 12, ("C3", "H2", "P3"), (0,)),
    ("dpi", 4, ("C2x3", "P2x3"), (0,)),
    ("separoid", 4, ("C2x2x2x2", "P2x2x2x2", "C2x3x2x2"), range(3)),
)
# (generator, algebra, trials, seed) of monotonicity runs with witnesses
# or on classical and composite algebras: a trace-power-3 witness on a
# Stinespring channel of C4 at trial 37, trace-power-2 merge and
# split-recovery witnesses on C3 (exit 1), passing classical and C2x2
# runs, and passing runs on C5 and H3, whose states and catalog trials
# draw larger Gaussians
MONO_RUNS = (
    ("trace-power-3", "C4", 48, 1),
    ("trace-power-2", "C3", 24, 0),
    ("trace-power-3", "P3", 24, 0),
    ("neg-entropy", "P4", 24, 0),
    ("neg-entropy", "C2x2", 12, 0),
    ("neg-entropy", "C5", 24, 0),
    ("neg-entropy", "H3", 24, 0),
)
# (generator, algebra, trials) of separoid runs: trace-power-2 breaks the
# chain rule and positivity on complex and classical qubits (exit 1), 5
# and 9 trials end inside a 4-trial cycle of pure states, and four qutrits
# hold 8.5 MB of idempotents per trial, so their trials split into
# several stacks
SEPAROID_RUNS = (
    ("trace-power-2", "C2x2x2x2", 5),
    ("trace-power-2", "P2x2x2x2", 5),
    ("neg-entropy", "C2x3x2x2", 5),
    ("neg-entropy", "C2x3x2x2", 9),
    ("neg-entropy", "C3x3x3x3", 9),
    ("neg-entropy", "C3x3x3x3", 16),
)
# (file stem, embedding, sizes, seed of its full-rank and pure states)
COMPOSITES = [
    ("C2x2x2", st.COMPLEX_TENSOR, (2, 2, 2), 37),
    ("P2x3x2", st.CLASSICAL_TENSOR, (2, 3, 2), 38),
]
# label sets of the information cases, interleaved ones included
MI_LABELS = (("A", "B"), ("B", "A,C"), ("C,A", "B"))
CMI_LABELS = (("A", "B", "C"), ("A", "C", "B"), ("C", "A", "B"))
# (property, algebras) of the one-trial-at-a-time suites, six trials each
TRIAL_SUITES = (
    ("local", ("C3", "R3", "H3", "P3")),
    ("identity", ("C2", "S3", "H2", "P3")),
    ("additivity", ("C2x2", "P2x3")),
    ("marginal", ("C2x2", "P2x2")),
    ("suff", ("S3", "R3", "P3")),
)


def _state_doc(spec: dict, shape: str, seed: int) -> dict:
    algebra = sz.algebra_from_json([spec])
    if shape == "mixed":
        state = st.maximally_mixed(algebra)
    else:
        rank_cap = 1 if shape == "pure" else None
        state = st.random_state(algebra, rank_cap=rank_cap, seed=seed)
    return sz.state_to_json(state)


def _composite_doc(embedding: str, sizes, shape: str, seed: int) -> dict:
    layout = st.composite_layout(embedding, sizes)
    rank_cap = 1 if shape == "pure" else None
    state = st.random_state(layout.ambient, rank_cap=rank_cap, seed=seed,
                            layout=layout)
    return sz.state_to_json(state)


def _direct_sum_doc(seed: int) -> dict:
    algebra = sz.algebra_from_json(DIRECT_SUM["algebra"])
    return sz.state_to_json(st.random_state(algebra, seed=seed))


def write_states() -> None:
    """Write every missing state file; existing ones are kept."""
    (HERE / "states").mkdir(exist_ok=True)
    makers = {
        "C2+P2": lambda: DIRECT_SUM,
        "C2+P2-full": partial(_direct_sum_doc, DIRECT_SUM_SEED),
    }
    for stem, spec, seed in ALGEBRAS:
        for shape in SHAPES:
            makers[f"{stem}-{shape}"] = partial(_state_doc, spec, shape, seed)
    for stem, embedding, sizes, seed in COMPOSITES:
        for shape in ("full", "pure"):
            makers[f"{stem}-{shape}"] = partial(
                _composite_doc, embedding, sizes, shape, seed
            )
    for name, make in makers.items():
        path = HERE / "states" / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps(make(), sort_keys=True) + "\n")


def cases() -> list[list[str]]:
    """Every argv, with state paths relative to this directory."""
    argvs = []
    for stem, _, _ in ALGEBRAS:
        for shape in SHAPES:
            path = f"states/{stem}-{shape}.json"
            for samples, seed in SAMPLES:
                argvs.append(["entropy", "--state", path, "--samples",
                              str(samples), "--seed", str(seed)])
        argvs.append(["entropy", "--state", f"states/{stem}-full.json",
                      "--samples", "200", "--seed", "3", "--bits"])
    # usage errors: exit 2 with a JSON error
    argvs.append(["entropy", "--state", "states/C2-full.json",
                  "--samples", "0"])
    argvs.append(["entropy", "--state", "states/C2+P2.json"])
    # channel suites: Stinespring, catalog and factor-lifted channels
    for prop, trials, algebras, seeds in CHANNEL_SUITES:
        for algebra in algebras:
            for seed in seeds:
                argvs.append(["suite", "--property", prop, "--algebra",
                              algebra, "--trials", str(trials),
                              "--seed", str(seed)])
    # mutual and conditional mutual informations on composite files
    for stem, _, _, _ in COMPOSITES:
        for shape in ("full", "pure"):
            path = f"states/{stem}-{shape}.json"
            for a, b in MI_LABELS:
                argvs.append(["mi", "--state", path, "--a", a, "--b", b])
            for a, b, c in CMI_LABELS:
                argvs.append(["cmi", "--state", path, "--a", a, "--b", b,
                              "--c", c])
        argvs.append(["cmi", "--state", f"states/{stem}-full.json", "--a",
                      "A", "--b", "B", "--c", "C", "--generator",
                      "trace-power-2", "--bits"])
    # overlapping and unknown labels: exit 2 with a JSON error
    for b in ("A", "Q"):
        argvs.append(["cmi", "--state", "states/C2x2x2-full.json", "--a",
                      "A", "--b", b, "--c", "B"])
    # divergences on every kind and on a direct sum, both generators
    for stem, _, _ in ALGEBRAS:
        for rho, sigma in DIVERGENCE_PAIRS:
            for generator in ("neg-entropy", "trace-power-2"):
                argvs.append(["divergence", "--rho",
                              f"states/{stem}-{rho}.json", "--sigma",
                              f"states/{stem}-{sigma}.json", "--generator",
                              generator])
        argvs.append(["divergence", "--rho", f"states/{stem}-full.json",
                      "--sigma", f"states/{stem}-mixed.json", "--bits"])
    for rho, sigma in (("C2+P2-full", "C2+P2"), ("C2+P2", "C2+P2-full")):
        for generator in ("neg-entropy", "trace-power-2"):
            argvs.append(["divergence", "--rho", f"states/{rho}.json",
                          "--sigma", f"states/{sigma}.json", "--generator",
                          generator])
    # mismatched algebras and an unknown generator: exit 2
    argvs.append(["divergence", "--rho", "states/C2-full.json", "--sigma",
                  "states/C4-full.json"])
    argvs.append(["divergence", "--rho", "states/C2-full.json", "--sigma",
                  "states/C2-mixed.json", "--generator", "nope"])
    # monotonicity witnesses, and the conjecture explorer, whose mixtures
    # run the monotonicity suite
    for generator, algebra, trials, seed in MONO_RUNS:
        argvs.append(["suite", "--property", "mono", "--generator", generator,
                      "--algebra", algebra, "--trials", str(trials),
                      "--seed", str(seed)])
    argvs.append(["explore", "--generators", "6", "--trials", "8"])
    for generator, algebra, trials in SEPAROID_RUNS:
        argvs.append(["suite", "--property", "separoid", "--generator",
                      generator, "--algebra", algebra, "--trials",
                      str(trials)])
    # the named boxes, the optimizer and the embedding audit
    for box in ("pr", "white", "deterministic", "quantum-opt"):
        argvs.append(["chsh", "--box", box, "--restarts", "2"])
    argvs.append(["chsh", "--box", "pr", "--table"])
    argvs.append(["audit-example1"])
    for prop, algebras in TRIAL_SUITES:
        for algebra in algebras:
            argvs.append(["suite", "--property", prop, "--algebra", algebra,
                          "--trials", "6"])
    # trace-power-2 fails locality and sufficiency at rank 3 (exit 1)
    for prop in ("local", "suff"):
        argvs.append(["suite", "--property", prop, "--generator",
                      "trace-power-2", "--algebra", "C3", "--trials", "6"])
    # no restarts, no samples and a rank-2 locality run: exit 2
    argvs.append(["chsh", "--box", "quantum-opt", "--restarts", "0"])
    argvs.append(["audit-example1", "--samples", "0"])
    argvs.append(["suite", "--property", "local", "--algebra", "S3"])
    return argvs


def run_case(argv: list[str]) -> dict:
    """Exit code and parsed output of one CLI run, from this directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    finally:
        os.chdir(cwd)
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": json.loads(out.getvalue()) if out.getvalue() else None,
        "stderr": json.loads(err.getvalue()) if err.getvalue() else None,
    }


def main() -> int:
    write_states()
    held = {}
    if EXPECTED.exists():
        held = {tuple(e["argv"]): e for e in json.loads(EXPECTED.read_text())}
    for argv in REGENERATE:
        held.pop(tuple(argv), None)
    entries, added = [], 0
    for argv in cases():
        if tuple(argv) not in held:
            held[tuple(argv)] = run_case(argv)
            added += 1
        entries.append(held[tuple(argv)])
    EXPECTED.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {added} of {len(entries)} entries to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
