"""The benchmark's workloads: inputs from a seed, setup, timed checks, gate.

Each workload is closed loop: one client runs its checks one after the
other in a single-threaded worker process.  ``run.py`` calls
``make_inputs`` to turn the seed into plain JSON inputs; the worker builds
the workload's runner (the set-up), runs its ``checks`` inside the timed
window, then calls ``outputs`` after the window closes.  The engine sees
only the generated inputs.

A check is one call into the public API that yields a verdict:

* ``oprep-2x2``: one ``qmb rep-check`` call; its verdicts are the PASS/FAIL
  lines it prints.
* ``invariance-2x2``: one ``invariance_defect`` call; the verdict is that
  the defect is zero.
* ``gram-2x2``: one ``gram_minors_positive`` call (verdict: True) or one
  ``projector_pairing_rank`` call (verdict: the closed-form dimension).

Sizes: ``full`` is the benchmark proper; ``smoke`` runs the same code at
1x2 in about a second, for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from math import comb

# Small-height sample points in (0, 1) whose determinant cost is alike, so
# the seed changes the inputs but not the amount of work.
GRAM_POINTS = ("1/2", "1/3", "2/3", "3/4", "4/7", "5/7", "5/8", "9/10")
ORACLE_SAMPLE = 12  # sandwiches checked against the trace form per worker

SIZES = {
    "oprep-2x2": {"full": (2, 2, 2), "smoke": (1, 2, 2)},  # m, n, max degree
    "invariance-2x2": {"full": (2, 2, 3), "smoke": (1, 2, 2)},  # m, n, bidegree
    "gram-2x2": {"full": (2, 2, 5, 3), "smoke": (1, 2, 3, 2)},  # m, n, k max, l max
}
WORKLOADS = tuple(SIZES)


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _basis_len(m: int, n: int, degree: int) -> int:
    """Number of degree-d coordinate monomials: comb(mn + d - 1, d)."""
    return comb(m * n + degree - 1, degree)


# ---------------------------------------------------------------------------
# run.py side: seed -> inputs (no engine import)


def make_inputs(workload: str, size: str, seed: int) -> dict:
    rng = random.Random(seed)
    params = SIZES[workload][size]
    if workload == "oprep-2x2":
        m, n, deg = params
        return {"argv": ["rep-check", "--mn", f"{m}x{n}", "--max-degree", str(deg)]}
    if workload == "invariance-2x2":
        m, n, deg = params
        nbasis = sum(_basis_len(m, n, k) for k in range(deg + 1))
        nletters = 4 * (m + n - 1)
        order = [
            [p, r, x] for p in range(nbasis) for r in range(nbasis) for x in range(nletters)
        ]
        rng.shuffle(order)
        pairs = [[p, r] for p in range(nbasis) for r in range(nbasis)]
        return {"m": m, "n": n, "degree": deg, "order": order,
                "oracle": rng.sample(pairs, min(ORACLE_SAMPLE, len(pairs)))}
    if workload == "gram-2x2":
        m, n, kmax, lmax = params
        return {"m": m, "n": n, "kmax": kmax, "lmax": lmax,
                "points": rng.sample(GRAM_POINTS, 2)}
    raise KeyError(workload)


def expected_verdicts(workload: str, inputs: dict) -> list:
    """Verdict each check must return, in check order."""
    if workload == "oprep-2x2":
        return [0]  # exit code of the rep-check call
    if workload == "invariance-2x2":
        return [True] * len(inputs["order"])
    m, n = inputs["m"], inputs["n"]
    minors = [True] * (2 * (inputs["kmax"] + 1))
    ranks = [_basis_len(m, n, l) for l in range(inputs["lmax"] + 1)]
    return minors + ranks


# ---------------------------------------------------------------------------
# worker side (imports the engine)


class Oprep:
    """``qmb rep-check``: operator tables built and composed at cutoff 10."""

    def __init__(self, inputs: dict):
        from qmatball import cli
        from qmatball.algebras import make_preset

        self.cli = cli
        self.argv = inputs["argv"]
        m, n = (int(x) for x in self.argv[2].split("x"))
        for name in ("Pol", "CMat", "FunU"):
            make_preset(name, m, n)
        self.stdout = ""

    def checks(self):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(self.argv)
            self.stdout = buf.getvalue()
            return rc

        yield "rep-check", run

    def outputs(self) -> dict:
        lines = self.stdout.splitlines()
        return {"stdout_sha256": sha256(lines),
                "verdicts": [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]}


class Invariance:
    """``invariance_defect`` of every symmetry letter on every sandwich."""

    def __init__(self, inputs: dict):
        from qmatball.algebras import make_preset, star
        from qmatball.fockrep import hilbert_basis
        from qmatball.integral import integral_nu, integral_nu_trace, invariance_defect
        from qmatball.uqaction import UqElement
        from qmatball.words import NCPoly, sym

        m, n, deg = inputs["m"], inputs["n"], inputs["degree"]
        self.inputs = inputs
        self.funu = make_preset("FunU", m, n)
        self.letters = [
            UqElement.letter(kind, j)
            for j in range(1, m + n)
            for kind in ("E", "F", "K", "Kinv")
        ]
        basis = [b for k in range(deg + 1) for b in hilbert_basis(m, n, k)]
        f0p = NCPoly.from_word((sym("f0"),))
        stars = [star(NCPoly.from_word(w), self.funu) for w in basis]
        self.sandwiches = {
            (p, r): NCPoly.from_word(wp) * f0p * stars[r]
            for p, wp in enumerate(basis)
            for r in range(len(basis))
        }
        self.defect = invariance_defect
        self.integral_nu = integral_nu
        self.integral_nu_trace = integral_nu_trace

    def checks(self):
        funu, letters, sand, defect = self.funu, self.letters, self.sandwiches, self.defect
        for p, r, x in self.inputs["order"]:
            f, xi = sand[(p, r)], letters[x]
            yield "invariance_defect", lambda: defect(xi, f, funu).is_zero

    def outputs(self) -> dict:
        funu = self.funu
        values = [
            f"{p},{r}:{self.integral_nu(f, funu).to_string()}"
            for (p, r), f in sorted(self.sandwiches.items())
        ]
        oracle_ok = [
            self.integral_nu(self.sandwiches[(p, r)], funu)
            == self.integral_nu_trace(self.sandwiches[(p, r)], funu)
            for p, r in self.inputs["oracle"]
        ]
        return {"integrals_sha256": sha256(values), "oracle_ok": oracle_ok}


class Gram:
    """Sylvester minors of the Gram blocks and the projector pairing ranks."""

    def __init__(self, inputs: dict):
        from qmatball.algebras import make_preset
        from qmatball.fockrep import gram_matrix, gram_minors_positive, projector_pairing_rank

        self.inputs = inputs
        m, n = inputs["m"], inputs["n"]
        for name in ("Pol", "CMat", "FunU"):
            make_preset(name, m, n)
        self.minors = gram_minors_positive
        self.rank = projector_pairing_rank
        self.gram_matrix = gram_matrix

    def checks(self):
        inp = self.inputs
        m, n = inp["m"], inp["n"]
        points = [Fraction(p) for p in inp["points"]]
        for k in range(inp["kmax"] + 1):
            for s0 in points:
                yield "gram_minors_positive", lambda k=k, s0=s0: self.minors(m, n, k, s0)
        for l in range(inp["lmax"] + 1):
            yield "projector_pairing_rank", lambda l=l: self.rank(m, n, l, points[0])

    def outputs(self) -> dict:
        m, n = self.inputs["m"], self.inputs["n"]
        return {
            "gram_sha256": [
                sha256(c.to_string() for row in self.gram_matrix(m, n, k) for c in row)
                for k in range(self.inputs["kmax"] + 1)
            ]
        }


RUNNERS = {"oprep-2x2": Oprep, "invariance-2x2": Invariance, "gram-2x2": Gram}
