"""Command-line front end: parsing, bound queries, solving, analysis,
table generation, seeded random systems, and the regression suite.

System file format::

    # comment
    field 7
    vars x,y
    x^4 - 1
    x^2*y - x^2
    y^2 - 1

One polynomial per non-comment line, terms joined by + or -, each term a
product of an optional integer coefficient and variable powers written
name^e.  Exit codes: 0 success, 1 computational failure, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from . import __version__
from .analyze import analyze_system
from .bounds import (
    aci_bound,
    egh_bound,
    egh_bound_inhomogeneous,
    egh_bound_weil,
    egh_bound_weil_inhomogeneous,
    inhomogeneous_bound,
    macaulay_bound,
    many_equations_bound,
    quadratic_regularity,
    regularity_from_series,
    regularity_table,
    render_table_tsv,
)
from .field import PrimeField
from .macaulay import DegreeCapExceeded, SolveReport, SolveTimeout, solve
from .poly import PolySystem, Polynomial, PolynomialRing
from .randsys import random_system


class ParseError(ValueError):
    """System file rejected; carries line and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownVariable(ParseError):
    pass


# -- system file parsing -------------------------------------------------------


def _parse_term(term: str, ring: PolynomialRing, lineno: int,
                col: int) -> tuple[tuple[int, ...], int]:
    """One term `c*name^e*...` -> (exponent tuple, coefficient)."""
    coeff = 1
    exps = [0] * ring.n
    pos = {name: i for i, name in enumerate(ring.names)}
    saw_factor = False
    for factor in term.split("*"):
        factor = factor.strip()
        if not factor:
            raise ParseError("empty factor", lineno, col)
        if factor.lstrip("+-").isdigit():
            coeff *= int(factor)
            saw_factor = True
            continue
        if "^" in factor:
            name, _, exp = factor.partition("^")
            name = name.strip()
            exp = exp.strip()
            if not exp.isdigit():
                raise ParseError(f"bad exponent {exp!r}", lineno, col)
            e = int(exp)
        else:
            name, e = factor, 1
        name = name.strip()
        if name not in pos:
            raise UnknownVariable(f"unknown variable {name!r}", lineno, col)
        exps[pos[name]] += e
        saw_factor = True
    if not saw_factor:
        raise ParseError("empty term", lineno, col)
    return tuple(exps), coeff


def _parse_poly(line: str, ring: PolynomialRing, lineno: int) -> Polynomial:
    acc: dict[tuple[int, ...], int] = {}
    # Split into signed terms at top level.
    i = 0
    sign = 1
    start = 0
    text = line.strip()
    if not text:
        raise ParseError("empty polynomial", lineno)
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        start = 1
        i = 1
    while i <= len(text):
        if i == len(text) or text[i] in "+-":
            term = text[start:i].strip()
            if not term:
                raise ParseError("missing term", lineno, start)
            exps, c = _parse_term(term, ring, lineno, start)
            acc[exps] = acc.get(exps, 0) + sign * c
            if i < len(text):
                sign = -1 if text[i] == "-" else 1
            start = i + 1
        i += 1
    return ring.poly(acc)


def parse_system(text: str) -> PolySystem:
    """Parse the system file format into a PolySystem."""
    field_p: int | None = None
    names: tuple[str, ...] | None = None
    ring: PolynomialRing | None = None
    polys: list[Polynomial] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if field_p is None:
            head, _, rest = line.partition(" ")
            if head != "field":
                raise ParseError("expected 'field <prime>'", lineno)
            try:
                field_p = int(rest.strip())
            except ValueError:
                raise ParseError(f"bad field {rest.strip()!r}", lineno) from None
            continue
        if names is None:
            head, _, rest = line.partition(" ")
            if head != "vars":
                raise ParseError("expected 'vars a,b,...'", lineno)
            names = tuple(v.strip() for v in rest.split(",") if v.strip())
            if not names:
                raise ParseError("no variables given", lineno)
            ring = PolynomialRing(names, PrimeField(field_p))
            continue
        polys.append(_parse_poly(line, ring, lineno))
    if ring is None:
        raise ParseError("missing field/vars header", 1)
    return PolySystem(ring, tuple(polys))


def render_poly(f: Polynomial, ring: PolynomialRing) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for k, (m, c) in enumerate(f.terms):
        factors = []
        if c.value != 1 or m.is_one():
            factors.append(str(c.value))
        for i, e in enumerate(m.exps):
            if e == 1:
                factors.append(ring.names[i])
            elif e > 1:
                factors.append(f"{ring.names[i]}^{e}")
        term = "*".join(factors)
        parts.append(term if k == 0 else f"+ {term}")
    return " ".join(parts)


def render_system(F: PolySystem) -> str:
    lines = [f"field {F.ring.modulus.p}", "vars " + ",".join(F.ring.names)]
    lines.extend(render_poly(f, F.ring) for f in F.polys)
    return "\n".join(lines) + "\n"


# -- report documents ------------------------------------------------------------


def _document(command: str, result: dict, input_bytes: bytes | None = None) -> dict:
    doc = {
        "tool": "solvdeg",
        "version": __version__,
        "command": command,
        "result": result,
    }
    if input_bytes is not None:
        doc["input_sha256"] = hashlib.sha256(input_bytes).hexdigest()
    return doc


def _write(args, text: str) -> None:
    """Write text to the --out file, or to stdout without one."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, args, human: str) -> None:
    if args.json:
        _write(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        _write(args, human)


def _solve_report_dict(rep: SolveReport, ring: PolynomialRing) -> dict:
    return {
        "basis": [render_poly(g, ring) for g in rep.basis],
        "solving_degree": rep.solving_degree,
        "max_gb_degree": rep.max_gb_degree,
        "stop_reason": rep.stop_reason,
        "trace": [
            {"degree": t.degree, "rows": t.rows, "cols": t.cols,
             "rank": t.rank, "degree_falls": t.degree_falls}
            for t in rep.trace
        ],
    }


# -- subcommands --------------------------------------------------------------------


def _degrees_arg(s: str) -> list[int]:
    return [int(x) for x in s.split(",") if x.strip()]


# Bound kinds: flag, the arguments the bound needs besides -n, and the
# bound.  "degrees" is --degrees, or -d repeated -m (else n + k) times.
_BOUNDS = (
    ("--macaulay", ("degrees",), lambda a: macaulay_bound(a.n, a.degrees)),
    ("--semiregular", ("degrees",),
     lambda a: regularity_from_series(a.n, a.degrees)),
    ("--closed-form", ("m",), lambda a: quadratic_regularity(a.m, a.n)),
    ("--aci", ("degrees",), lambda a: aci_bound(a.n, a.degrees)),
    ("--larger-m", ("d",), lambda a: many_equations_bound(a.n, a.d)),
    ("--inhomogeneous", ("m", "degrees"),
     lambda a: inhomogeneous_bound(a.m, a.n, a.degrees)),
    ("--egh", ("m",), lambda a: egh_bound(a.m, a.n)),
    ("--egh-inhomog", ("m",), lambda a: egh_bound_inhomogeneous(a.m, a.n)),
    ("--weil", ("d", "ell"), lambda a: egh_bound_weil(a.n, a.d, a.ell)),
    ("--weil-inhomog", ("d", "ell"),
     lambda a: egh_bound_weil_inhomogeneous(a.n, a.d, a.ell)),
)
_ARG_FLAGS = {"m": "-m", "d": "-d", "ell": "--ell",
              "degrees": "--degrees (or -d with -m or -k)"}


def _bound_degrees(args) -> list[int] | None:
    if args.degrees:
        return _degrees_arg(args.degrees)
    if args.d is None:
        return None
    if args.m is not None:
        return [args.d] * args.m
    if args.k is not None:
        return [args.d] * (args.n + args.k)
    return None


def _kind(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _cmd_bound(args) -> int:
    chosen = [b for b in _BOUNDS if getattr(args, _kind(b[0]))]
    if len(chosen) != 1:
        _error(args, "bound: choose exactly one bound kind", code=2)
        return 2
    flag, needs, bound = chosen[0]
    args.degrees = _bound_degrees(args)
    missing = [_ARG_FLAGS[name] for name in needs
               if getattr(args, name) is None]
    if missing:
        _error(args, f"bound {flag} needs {', '.join(missing)}", code=2)
        return 2
    value = bound(args)
    result = {"kind": _kind(flag), "value": value,
              "m": args.m, "n": args.n, "degrees": args.degrees}
    _emit(_document("bound", result), args, f"{value}\n")
    return 0


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _cmd_solve(args) -> int:
    data = _read_input(args.file)
    F = parse_system(data.decode())
    rep = solve(F, max_degree=args.max_degree, apriori_bound=args.apriori,
                timeout=args.timeout_secs)
    result = _solve_report_dict(rep, F.ring)
    human = (
        f"solving degree: {rep.solving_degree}\n"
        f"max basis degree: {rep.max_gb_degree}\n"
        f"stop reason: {rep.stop_reason}\n"
        "basis:\n" + "".join(f"  {b}\n" for b in result["basis"])
    )
    _emit(_document("solve", result, data), args, human)
    return 0


def _cmd_analyze(args) -> int:
    data = _read_input(args.file)
    F = parse_system(data.decode())
    rep = analyze_system(
        F,
        include_groebner=not args.no_groebner,
        timeout=args.timeout_secs,
    )
    result = {
        "d_reg": "inf" if rep.d_reg == math.inf else int(rep.d_reg),
        "is_artinian": rep.is_artinian,
        "artinian_witness_degree": rep.artinian_witness_degree,
        "crypto_semiregular": rep.crypto_semiregular,
        "pardue_prefix_semiregular": rep.pardue_prefix_semiregular,
        "t_nonzerodivisor": rep.t_nonzerodivisor,
        "max_groebner_degree": rep.max_groebner_degree,
        "hilbert_function": list(rep.hilbert_function),
    }
    human = "".join(f"{k}: {v}\n" for k, v in result.items())
    _emit(_document("analyze", result, data), args, human)
    return 0


def _cmd_table(args) -> int:
    ks = range(args.k_min, args.k_max + 1)
    ns = range(args.n_min, args.n_max + 1)
    table = regularity_table(ks, ns, d=args.d)
    result = {"k_range": [args.k_min, args.k_max],
              "n_range": [args.n_min, args.n_max],
              "d": args.d, "rows": table}
    _emit(_document("table", result), args,
          render_table_tsv(list(ks), list(ns), table))
    return 0


def _cmd_gen_random(args) -> int:
    degrees = (_degrees_arg(args.degrees) if args.degrees
               else [args.d] * args.m)
    F = random_system(args.p, args.n, degrees, args.seed,
                      homogeneous=args.homogeneous)
    _write(args, render_system(F))
    return 0


def _cmd_verify_paper(args) -> int:
    from .verify import run_verification

    report = args.json or args.out
    outcomes = run_verification(fast=args.fast,
                                out=None if report else sys.stdout)
    if report:
        result = {"claims": [{"name": o.claim.name, "passed": o.passed,
                              "seconds": o.seconds} for o in outcomes]}
        _emit(_document("verify-paper", result), args,
              "".join(o.line + "\n" for o in outcomes))
    return 0 if all(o.passed for o in outcomes) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="solvdeg",
        description="Solving-degree bounds and Macaulay-matrix Groebner "
                    "solving over prime fields.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(sp, *flags):
        if "json" in flags:
            sp.add_argument("--json", action="store_true",
                            help="emit a JSON report document")
        sp.add_argument("--out", help="write output to a file")
        if "timeout" in flags:
            sp.add_argument("--timeout-secs", type=float, default=None)

    b = sub.add_parser("bound", help="closed-form and series bound queries")
    common(b, "json")
    for flag, _, _ in _BOUNDS:
        b.add_argument(flag, action="store_true")
    b.add_argument("-m", type=int, default=None)
    b.add_argument("-n", type=int, required=True)
    b.add_argument("-k", type=int, default=None,
                   help="m - n, for the degree list when -m is not given")
    b.add_argument("-d", type=int, default=None)
    b.add_argument("--ell", type=int, default=None,
                   help="independent quadric count for the descent bounds")
    b.add_argument("--degrees", default=None,
                   help="comma-separated degree multiset")
    b.set_defaults(fn=_cmd_bound)

    s = sub.add_parser("solve", help="measure the solving degree of a system")
    common(s, "json", "timeout")
    s.add_argument("file", help="system file, or - for stdin")
    s.add_argument("--max-degree", type=int, default=None)
    s.add_argument("--apriori", type=int, default=None,
                   help="stop at this degree without certification")
    s.set_defaults(fn=_cmd_solve)

    a = sub.add_parser("analyze", help="diagnostics for a system")
    common(a, "json", "timeout")
    a.add_argument("file")
    a.add_argument("--no-groebner", action="store_true",
                   help="skip max_groebner_degree (saves a solve on "
                        "homogeneous input only)")
    a.set_defaults(fn=_cmd_analyze)

    t = sub.add_parser("table", help="regularity grid as TSV")
    common(t, "json")
    t.add_argument("--k-min", type=int, default=2)
    t.add_argument("--k-max", type=int, default=100)
    t.add_argument("--n-min", type=int, default=2)
    t.add_argument("--n-max", type=int, default=100)
    t.add_argument("-d", type=int, default=2)
    t.set_defaults(fn=_cmd_table)

    g = sub.add_parser("gen-random", help="seeded random system")
    common(g)
    g.add_argument("-m", type=int, required=True)
    g.add_argument("-n", type=int, required=True)
    g.add_argument("-p", type=int, required=True)
    g.add_argument("-d", type=int, default=2)
    g.add_argument("--degrees", default=None)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--homogeneous", action="store_true")
    g.set_defaults(fn=_cmd_gen_random)

    v = sub.add_parser("verify-paper", help="check the paper's claims")
    common(v, "json")
    v.add_argument("--fast", action="store_true",
                   help="skip the claims marked slow")
    v.set_defaults(fn=_cmd_verify_paper)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        _error(args, str(exc), code=2)
        return 2
    except (DegreeCapExceeded, SolveTimeout) as exc:
        _error(args, str(exc), code=1)
        return 1


def _error(args, message: str, code: int) -> None:
    doc = {"tool": "solvdeg", "version": __version__,
           "error": message, "exit_code": code}
    if getattr(args, "json", False):
        sys.stderr.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"solvdeg: {message}\n")


if __name__ == "__main__":
    sys.exit(main())
