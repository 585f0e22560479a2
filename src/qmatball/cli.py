"""Command-line front end for the quantum matrix ball toolkit.

The ``qmb`` entry point exposes the exact engine as a small set of verbs:

* ``dims``           -- dimensions of graded (or bigraded) basis slices,
* ``nf``             -- rewrite a polynomial to its normal form,
* ``act``            -- apply one symmetry-generator letter to a polynomial,
* ``gram``           -- print a Gram block, optionally certifying positivity,
* ``integral``       -- evaluate the invariant integral (or run a positivity
  sample battery with ``--positivity``),
* ``invariance``     -- per-letter invariance defects of the integral,
* ``rep-check``      -- the operator-representation battery, exact at every
  degree,
* ``rmatrix-check``  -- Hecke/braid/invertibility checks for the braiding
  tables,
* ``export``         -- dump a truncated operator as CSV or JSON.

Polynomials are passed as JSON (``--input``) in the same shape that
``NCPoly.to_json`` emits: ``{"terms": [{"word": [...], "coeff": "..."}]}``.
``--input @file`` reads from a file and ``--input -`` reads from stdin.

Exit codes: ``0`` success, ``1`` usage or input error, ``2`` a verification
verb found a failing property.  All output is deterministic: JSON objects are
emitted with sorted keys and every enumeration is sorted.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

from .algebras import parse_preset
from .braiding import TAGS, verify_rhat_properties
from .field import GaussRat, from_int, I
from .fockrep import (
    CutoffError,
    default_cutoff,
    det_is_identity_ok,
    diagonal_laws_ok,
    equivalence_report,
    gram_matrix,
    gram_minors_positive,
    operator_csv,
    operator_json,
    rep_coordinate,
    rep_coordinate_star,
    rep_letter,
    rep_minor,
    rep_projector,
    rep_tpoly,
    rules_as_operators_failures,
    type_identity_ok,
    vacuum_modulus_ok,
)
from .integral import integral_nu, invariance_defect, positivity_sample_ok
from .qminors import corner_minor_label, opposite_corner_label, volume_element
from .uqaction import E, F, K, Kinv, act, parse_letter
from .words import NCPoly, sym

__all__ = ["main"]


class UsageError(ValueError):
    """A malformed flag or input that should map to exit code 1."""


# ---------------------------------------------------------------------------
# small parsing / formatting helpers
# ---------------------------------------------------------------------------


def _parse_mn(text: str) -> tuple:
    try:
        ms, ns = text.lower().split("x")
        m, n = int(ms), int(ns)
    except ValueError as exc:
        raise UsageError(f"malformed size {text!r}; expected e.g. '2x2'") from exc
    if m < 1 or n < 1:
        raise UsageError(f"size {text!r} must have positive parts")
    return m, n


def _parse_q0(text: str) -> Fraction:
    """Return the deformation root s0 with s0**2 == q0.

    The engine works over exact rationals, so q0 must itself be the square
    of a rational for the specialization to stay exact.
    """
    try:
        q0 = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed q0 value {text!r}") from exc
    if q0 <= 0:
        raise UsageError("q0 must be a positive rational")
    a, b = isqrt(q0.numerator), isqrt(q0.denominator)
    if a * a != q0.numerator or b * b != q0.denominator:
        raise UsageError(
            f"q0 must be the square of a rational (got {q0}); "
            "try 1/4, 4/9, 81/100, ..."
        )
    return Fraction(a, b)


def _read_poly(spec: str) -> NCPoly:
    if spec == "-":
        text = sys.stdin.read()
    elif spec.startswith("@"):
        try:
            text = Path(spec[1:]).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read polynomial file {spec[1:]!r}: {exc}")
    else:
        text = spec
    try:
        return NCPoly.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed polynomial JSON: {exc}") from exc


def _gauss_str(v: GaussRat) -> str:
    if v.im == 0:
        return str(v.re)
    if v.re == 0:
        return f"{v.im}i"
    sign = "+" if v.im > 0 else "-"
    return f"{v.re}{sign}{abs(v.im)}i"


def _poly_payload(f: NCPoly) -> dict:
    return json.loads(f.to_json())


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True), out)


def _check_lines(results: list) -> int:
    """Print one PASS/FAIL line per (name, ok) pair; return the exit code."""
    failed = 0
    for name, ok in results:
        print(("PASS" if ok else "FAIL") + f"  {name}")
        failed += 0 if ok else 1
    total = len(results)
    print(f"{total - failed}/{total} checks passed")
    return 0 if failed == 0 else 2


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def cmd_dims(args) -> int:
    preset = parse_preset(args.algebra)
    rows = []
    if args.bidegree:
        try:
            ps, rs = args.bidegree.split(",")
            p, r = int(ps), int(rs)
        except ValueError as exc:
            raise UsageError(
                f"malformed bidegree {args.bidegree!r}; expected e.g. '2,1'"
            ) from exc
        words = preset.basis_words({"z": p, "zs": r})
        rows.append({"bidegree": [p, r], "dimension": len(words)})
    else:
        for k in range(args.max_degree + 1):
            rows.append({"degree": k, "dimension": len(preset.basis_by_total_degree(k))})
    if args.format == "csv":
        key = "bidegree" if args.bidegree else "degree"
        lines = [f"{key},dimension"]
        for row in rows:
            head = row[key]
            cell = " ".join(map(str, head)) if isinstance(head, list) else str(head)
            lines.append(f"{cell},{row['dimension']}")
        _emit("\n".join(lines), args.out)
    else:
        _emit_json({"algebra": preset.label(), "rows": rows}, args.out)
    return 0


def cmd_nf(args) -> int:
    preset = parse_preset(args.algebra)
    f = _read_poly(args.input)
    g = preset.normal_form(f)
    _emit_json(
        {
            "algebra": preset.label(),
            "normal_form": _poly_payload(g),
            "pretty": str(g),
        },
        args.out,
    )
    return 0


_LETTER_MAKERS = {"E": E, "F": F, "K": K, "Kinv": Kinv}


def cmd_act(args) -> int:
    preset = parse_preset(args.algebra)
    try:
        kind, j = parse_letter(args.letter)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rank = preset.m + preset.n - 1
    if not 1 <= j <= rank:
        raise UsageError(
            f"letter index {j} out of range 1..{rank} for size "
            f"{preset.m}x{preset.n}"
        )
    f = _read_poly(args.input)
    g = act(_LETTER_MAKERS[kind](j), f, preset)
    _emit_json(
        {
            "algebra": preset.label(),
            "letter": args.letter,
            "result": _poly_payload(g),
            "pretty": str(g),
        },
        args.out,
    )
    return 0


def cmd_gram(args) -> int:
    m, n = _parse_mn(args.mn)
    k = args.max_degree
    G = gram_matrix(m, n, k)
    d = len(G)
    payload = {
        "mn": f"{m}x{n}",
        "degree": k,
        "dimension": d,
        "entries": [[G[i][j].to_string() for j in range(d)] for i in range(d)],
    }
    code = 0
    if args.q0 is not None:
        s0 = _parse_q0(args.q0)
        ok = all(gram_minors_positive(m, n, kk, s0) for kk in range(k + 1))
        payload["q0"] = args.q0
        payload["positive_minors_through_degree"] = ok
        code = 0 if ok else 2
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        buf.write(f"# mn={m}x{n} degree={k} dimension={d}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["row", "col", "value"])
        for i in range(d):
            for j in range(d):
                writer.writerow([i, j, G[i][j].to_string()])
        _emit(buf.getvalue(), args.out)
    else:
        _emit_json(payload, args.out)
    return code


def cmd_integral(args) -> int:
    preset = parse_preset(args.algebra)
    if args.positivity:
        import random

        s0 = _parse_q0(args.q0) if args.q0 else Fraction(1, 2)
        rng = random.Random(args.seed)
        zs = preset.symbols("z")
        f0 = sym("f0")
        results = []
        for t in range(args.positivity):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.choice(zs) for _ in range(rng.randint(0, 2)))
                c = from_int(rng.randint(-3, 3)) + I * rng.randint(-2, 2)
                if not c.is_zero:
                    terms[word + (f0,)] = c
            if not terms:
                terms[(f0,)] = from_int(1)
            f = NCPoly(terms)
            results.append((f"positivity sample {t} (seed {args.seed})",
                            positivity_sample_ok(f, preset, s0)))
        return _check_lines(results)
    f = _read_poly(args.input)
    v = integral_nu(f, preset)
    payload = {
        "algebra": preset.label(),
        "value": v.to_string(),
        "pretty": v.pretty(),
    }
    if args.q0 is not None:
        s0 = _parse_q0(args.q0)
        payload["q0"] = args.q0
        payload["value_at_q0"] = _gauss_str(v.eval_at(s0))
    _emit_json(payload, args.out)
    return 0


def cmd_invariance(args) -> int:
    preset = parse_preset(args.algebra)
    f = _read_poly(args.input)
    rank = preset.m + preset.n - 1
    results = []
    for j in range(1, rank + 1):
        for kind in ("E", "F", "K", "Kinv"):
            defect = invariance_defect(_LETTER_MAKERS[kind](j), f, preset)
            name = f"K{j}inv" if kind == "Kinv" else f"{kind}{j}"
            results.append((f"invariance under {name}", defect.is_zero))
    return _check_lines(results)


def cmd_rep_check(args) -> int:
    # every law is an identity of exact ladder operators, so it holds at
    # every degree; the type-identity line keeps its "through degree"
    # wording so the output stays unchanged
    m, n = _parse_mn(args.mn)
    through = args.max_degree
    results = [
        ("corner and volume minors act diagonally", diagonal_laws_ok(m, n)),
        ("vacuum eigenvalue modulus law", vacuum_modulus_ok(m, n)),
        (f"adjoint/type identity through degree {through}", type_identity_ok(m, n)),
        ("quantum determinant acts as identity", det_is_identity_ok(m, n)),
        (
            "all coordinate rewrite rules hold as operators",
            rules_as_operators_failures(m, n) == [],
        ),
    ]
    eq = equivalence_report(m, n, through)
    for key in sorted(eq):
        results.append((f"cyclic-module match: {key}", eq[key]))
    return _check_lines(results)


def cmd_rmatrix_check(args) -> int:
    results = []
    for tag in TAGS:
        report = verify_rhat_properties(tag, args.dim)
        for key in sorted(k for k in report if k not in ("tag", "d")):
            results.append((f"{tag} (dim {args.dim}): {key}", bool(report[key])))
    return _check_lines(results)


def _parse_indices(text: str, what: str, count: int) -> tuple:
    parts = text.split(",")
    if len(parts) != count or not all(p.strip().lstrip("-").isdigit() for p in parts):
        raise UsageError(
            f"malformed {what} spec {text!r}; expected {count} comma-separated integers"
        )
    return tuple(int(p) for p in parts)


def cmd_export(args) -> int:
    m, n = _parse_mn(args.mn)
    cutoff = args.cutoff if args.cutoff is not None else default_cutoff(m, n)
    what = args.what
    if ":" in what:
        head, _, tail = what.partition(":")
    else:
        head, tail = what, ""
    if head == "coordinate":
        a, al = _parse_indices(tail, "coordinate", 2)
        if not (1 <= a <= n and 1 <= al <= m):
            raise UsageError(
                f"coordinate ({a},{al}) out of range: rows 1..{n}, columns 1..{m}"
            )
        op = rep_coordinate(m, n, a, al, cutoff)
    elif head == "coordinate-star":
        a, al = _parse_indices(tail, "coordinate-star", 2)
        if not (1 <= a <= n and 1 <= al <= m):
            raise UsageError(
                f"coordinate ({a},{al}) out of range: rows 1..{n}, columns 1..{m}"
            )
        op = rep_coordinate_star(m, n, a, al, cutoff)
    elif head == "letter":
        i, j = _parse_indices(tail, "letter", 2)
        N = m + n
        if not (1 <= i <= N and 1 <= j <= N):
            raise UsageError(f"letter ({i},{j}) out of range 1..{N}")
        op = rep_letter(m, n, i, j, cutoff)
    elif head == "corner":
        op = rep_minor(m, n, corner_minor_label(m, n), cutoff)
    elif head == "opposite-corner":
        op = rep_minor(m, n, opposite_corner_label(m, n), cutoff)
    elif head == "volume":
        op = rep_tpoly(volume_element(m, n), m, n, cutoff)
    elif head == "projector":
        op = rep_projector(m, n, cutoff)
    else:
        raise UsageError(
            f"unknown export target {what!r}; expected coordinate:a,b, "
            "coordinate-star:a,b, letter:i,j, corner, opposite-corner, "
            "volume, or projector"
        )
    text = operator_csv(op) if args.format == "csv" else operator_json(op)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _nonneg_int(text: str) -> int:
    """argparse type for counts and bounds: a negative value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_out(p) -> None:
    p.add_argument("--out", help="write output to this file instead of stdout")


def _add_format(p, default="json") -> None:
    p.add_argument(
        "--format", choices=("json", "csv"), default=default, help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmb",
        description="Exact computations in the quantum matrix ball coordinate ring.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("dims", help="dimensions of graded basis slices")
    p.add_argument("--algebra", required=True, help="preset, e.g. pol:2x2 or cmat:1x2")
    p.add_argument("--max-degree", type=_nonneg_int, default=4)
    p.add_argument("--bidegree", help="count one (holomorphic, conjugate) slice, e.g. 2,1")
    _add_format(p)
    _add_out(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("nf", help="normal form of a polynomial")
    p.add_argument("--algebra", required=True)
    p.add_argument("--input", required=True, help="polynomial JSON, @file, or - for stdin")
    _add_out(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("act", help="apply a symmetry-generator letter")
    p.add_argument("letter", help="letter token, e.g. E1, F2, K1, K1inv")
    p.add_argument("--algebra", required=True)
    p.add_argument("--input", required=True, help="polynomial JSON, @file, or - for stdin")
    _add_out(p)
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("gram", help="Gram block of the cyclic module")
    p.add_argument("--mn", required=True, help="size, e.g. 1x2")
    p.add_argument("--max-degree", type=_nonneg_int, default=2, help="degree of the block")
    p.add_argument("--q0", help="also certify positivity of leading minors at q=q0")
    _add_format(p)
    _add_out(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("integral", help="evaluate the invariant integral")
    p.add_argument("--algebra", required=True, help="a preset with the projector letter, e.g. funu:1x1")
    p.add_argument("--input", help="polynomial JSON, @file, or - for stdin")
    p.add_argument("--q0", help="also evaluate at q=q0")
    p.add_argument(
        "--positivity",
        type=_nonneg_int,
        metavar="N",
        help="instead: run N random positivity samples of integral((f*)f)",
    )
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser("invariance", help="invariance defects of the integral")
    p.add_argument("--algebra", required=True)
    p.add_argument("--input", required=True, help="polynomial JSON, @file, or - for stdin")
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("rep-check", help="certified operator-representation battery")
    p.add_argument("--mn", required=True, help="size, e.g. 1x2")
    p.add_argument("--max-degree", type=_nonneg_int, default=3, help="degree bound for word checks")
    p.set_defaults(func=cmd_rep_check)

    p = sub.add_parser("rmatrix-check", help="Hecke/braid checks for braiding tables")
    p.add_argument("--dim", type=_nonneg_int, default=3, help="dimension of the underlying space")
    p.set_defaults(func=cmd_rmatrix_check)

    p = sub.add_parser("export", help="dump a truncated operator")
    p.add_argument("--mn", required=True, help="size, e.g. 1x2")
    p.add_argument(
        "--what",
        required=True,
        help="coordinate:a,b | coordinate-star:a,b | letter:i,j | corner | "
        "opposite-corner | volume | projector",
    )
    p.add_argument("--cutoff", type=_nonneg_int, help="truncation certificate (default per size)")
    _add_format(p, default="csv")
    _add_out(p)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.verb == "integral" and not args.positivity and not args.input:
        print("error: integral needs --input or --positivity N", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CutoffError as exc:
        print(f"error: truncation certificate too small: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
