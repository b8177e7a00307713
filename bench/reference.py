"""Independent reference for the benchmark's output checks.

This module never imports statecone.  It draws random states as plain
numpy matrices, encodes them into the coefficient basis that the
statecone README documents, and recomputes entropies, divergences and
(conditional) mutual information from numpy's ``eigvalsh``/``eigh`` on
the matrices it encoded.  The ``check_*`` functions compare one CLI
report against that reference, or against properties the method must
have, and return a list of problems (empty when the report is right).
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
VALUE_TOL = 1e-9  # absolute, in nats; a value off by 1e-6 fails
ZERO_CUTOFF = 1e-12
CHSH_QUANTUM = 2.0 * SQRT2

KINDS = {"R": "real", "C": "complex", "H": "quaternion", "S": "spin",
         "P": "classical"}


# ---------------------------------------------------------------------------
# random states as matrices ("reps")
# ---------------------------------------------------------------------------
#
# real/complex: the n x n matrix; quaternion: its 2n x 2n complex
# embedding [[a0 + i a1, a2 + i a3], [-a2 + i a3, a0 - i a1]];
# spin: the vector (t, v) with eigenvalues t +- |v|; classical: the
# probability vector.


def _quaternion_embedding(parts: np.ndarray) -> np.ndarray:
    a0, a1, a2, a3 = parts
    return np.block([[a0 + 1j * a1, a2 + 1j * a3],
                     [-a2 + 1j * a3, a0 - 1j * a1]])


def random_rep(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A full-rank trace-one state of the given kind and size."""
    if kind == "classical":
        return rng.dirichlet(np.ones(n))
    if kind == "spin":
        axis = rng.normal(size=n)
        radius = rng.uniform(0.05, 0.45)
        return np.concatenate(([0.5], radius * axis / np.linalg.norm(axis)))
    if kind == "real":
        g = rng.normal(size=(n, n))
        m = g @ g.T + 0.05 * np.eye(n)
        return m / np.trace(m)
    if kind == "complex":
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = g @ g.conj().T + 0.05 * np.eye(n)
        return m / np.trace(m).real
    if kind == "quaternion":
        x = _quaternion_embedding(rng.normal(size=(4, n, n)))
        m = x @ x.conj().T + 0.05 * np.eye(2 * n)
        return m / (0.5 * np.trace(m).real)  # Jordan trace is half of it
    raise ValueError(f"unknown kind {kind!r}")


def maximally_mixed_rep(kind: str, n: int) -> np.ndarray:
    if kind == "classical":
        return np.full(n, 1.0 / n)
    if kind == "spin":
        return np.concatenate(([0.5], np.zeros(n)))
    if kind == "quaternion":
        return np.eye(2 * n, dtype=complex) / n
    return np.eye(n, dtype=complex if kind == "complex" else float) / n


# ---------------------------------------------------------------------------
# encoder of the documented coefficient basis
# ---------------------------------------------------------------------------


def encode(kind: str, n: int, rep: np.ndarray) -> list[float]:
    """Coefficients: the n diagonal units, then per pair i < j in
    row-major order the off-diagonal parts scaled by sqrt(2); spin
    factors scale (t, v) by sqrt(2); classical ones are the vector."""
    if kind == "classical":
        return [float(x) for x in rep]
    if kind == "spin":
        return [float(x) for x in SQRT2 * rep]
    if kind == "quaternion":
        parts = [rep[:n, :n].real, rep[:n, :n].imag,
                 rep[:n, n:].real, rep[:n, n:].imag]
    elif kind == "complex":
        parts = [rep.real, rep.imag]
    else:
        parts = [rep]
    coeffs = [float(x) for x in np.diag(parts[0]).real]
    for i in range(n):
        for j in range(i + 1, n):
            coeffs.extend(float(SQRT2 * p[i, j]) for p in parts)
    return coeffs


def state_doc(kind: str, n: int, rep: np.ndarray, sizes=None) -> dict:
    """A statecone state document; ``sizes`` marks a tensor layout."""
    doc = {"kind": "state", "algebra": [{"type": kind, "n": n}],
           "coeffs": encode(kind, n, rep)}
    if sizes is not None:
        embedding = ("classical-tensor" if kind == "classical"
                     else "complex-tensor")
        doc["layout"] = {"embedding": embedding, "sizes": list(sizes)}
    return doc


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------


def spectrum(kind: str, rep: np.ndarray) -> np.ndarray:
    """Fine spectrum (eigenvalues with multiplicity) of an encoded rep."""
    if kind == "spin":
        r = float(np.linalg.norm(rep[1:]))
        return np.array([rep[0] + r, rep[0] - r])
    if kind == "classical":
        return np.linalg.eigvalsh(np.diag(rep))
    w = np.linalg.eigvalsh(rep)
    if kind == "quaternion":
        # the 2n embedding carries every quaternionic eigenvalue twice
        if not np.allclose(w[0::2], w[1::2], atol=1e-10):
            raise ValueError("quaternionic embedding spectrum is not paired")
        return w[0::2]
    return w


def entropy_of(eigenvalues: np.ndarray) -> float:
    lam = eigenvalues[eigenvalues > ZERO_CUTOFF]
    return float(-np.sum(lam * np.log(lam)))


def entropy(kind: str, rep: np.ndarray) -> float:
    return entropy_of(spectrum(kind, rep))


def _logm(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.log(w)) @ v.conj().T


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr rho (ln rho - ln sigma) for full-rank complex matrices."""
    return float(np.trace(rho @ (_logm(rho) - _logm(sigma))).real)


def partial_trace(kind: str, rep: np.ndarray, sizes, keep) -> np.ndarray:
    """Reduce a tensor rep (factor 0 most significant) onto ``keep``."""
    k = len(sizes)
    drop = tuple(i for i in range(k) if i not in keep)
    d = int(np.prod([sizes[i] for i in keep]))
    if kind == "classical":
        return rep.reshape(sizes).sum(axis=drop).reshape(d)
    t = rep.reshape(tuple(sizes) * 2)
    for i in reversed(drop):
        t = np.trace(t, axis1=i, axis2=i + k)
        k -= 1
    return t.reshape(d, d)


def _joint_entropy(kind, rep, sizes, keep) -> float:
    return entropy(kind, partial_trace(kind, rep, sizes, sorted(keep)))


def mutual_information(kind, rep, sizes, a, b) -> float:
    """S(A) + S(B) - S(AB) for disjoint factor index sets."""
    return (_joint_entropy(kind, rep, sizes, a)
            + _joint_entropy(kind, rep, sizes, b)
            - _joint_entropy(kind, rep, sizes, a + b))


def conditional_mutual_information(kind, rep, sizes, a, b, c) -> float:
    """S(AC) + S(BC) - S(C) - S(ABC)."""
    return (_joint_entropy(kind, rep, sizes, a + c)
            + _joint_entropy(kind, rep, sizes, b + c)
            - _joint_entropy(kind, rep, sizes, c)
            - _joint_entropy(kind, rep, sizes, a + b + c))


# ---------------------------------------------------------------------------
# checks of CLI reports
# ---------------------------------------------------------------------------


def _close(name: str, got, want: float, tol: float = VALUE_TOL) -> list[str]:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return [f"{name}: {got!r} is not a number"]
    if not abs(got - want) <= tol:
        return [f"{name}: got {got!r}, reference {want!r}"]
    return []


def check_entropy(report: dict, want: float, samples: int) -> list[str]:
    r = report["results"]
    problems = _close("spectral", r["spectral"], want)
    problems += _close("decomposition", r["decomposition"], want)
    problems += _close("fine_grained_lower", r["fine_grained_lower"], want)
    upper = r["fine_grained_upper"]
    if not isinstance(upper, float) or upper < want - VALUE_TOL:
        problems.append(f"fine_grained_upper {upper!r} below {want!r}")
    if r["n_measurements_sampled"] != samples:
        problems.append(f"sampled {r['n_measurements_sampled']!r} "
                        f"measurements, asked for {samples}")
    return problems


def check_divergence(report: dict, want: float) -> list[str]:
    return _close("divergence", report["results"]["divergence"], want)


def check_mi(report: dict, want: float) -> list[str]:
    return _close("mutual_information",
                  report["results"]["mutual_information"], want)


def check_cmi(report: dict, want: float) -> list[str]:
    r = report["results"]
    if r["defined"] is not True:
        return [f"cmi reported undefined: {r!r}"]
    return _close("cmi", r["value"], want)


def check_chsh(report: dict) -> list[str]:
    return _close("chsh", report["results"]["chsh"], CHSH_QUANTUM)


def check_suite(report: dict, trials: int,
                random_channels: bool = False) -> list[str]:
    """``pass`` true, every verdict ran ``trials`` trials without a
    witness; with ``random_channels`` no verdict may be catalog-only."""
    problems = []
    if report.get("pass") is not True:
        problems.append(f"pass is {report.get('pass')!r}")
    verdicts = report["results"]
    if not verdicts:
        problems.append("no verdicts")
    for key, v in verdicts.items():
        if v["trials"] != trials:
            problems.append(f"{key}: {v['trials']!r} trials, asked {trials}")
        if v["witnesses"]:
            problems.append(f"{key}: {len(v['witnesses'])} witnesses")
        if v["passed"] is not True:
            problems.append(f"{key}: passed is {v['passed']!r}")
        if random_channels and v["details"].get("channel_pool") \
                == "catalog-only":
            problems.append(f"{key}: channel pool is catalog-only")
    return problems
