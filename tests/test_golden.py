"""Replay the golden CLI reports of ``tests/golden/expected.json``.

Each entry is one argv run through ``cli.main`` in this process.  Its
exit code and every string, flag and integer must be identical; every
float may move by at most ``GOLDEN_TOL``, which leaves room for
summation order and nothing else.
"""

import json

import pytest

from golden.generate import EXPECTED, run_case

GOLDEN_TOL = 1e-12
ENTRIES = json.loads(EXPECTED.read_text())


def _assert_close(got, want, where="") -> None:
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert abs(got - want) <= GOLDEN_TOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_report_matches_golden(entry):
    _assert_close(run_case(entry["argv"]), entry)
