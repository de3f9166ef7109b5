"""Command-line interface.

Every command prints a single JSON report to stdout; diagnostics go to
stderr.  A command returns its payload and its check `Report` (None when it
has no checks); `run` appends the report's "checks" and "summary", then
"timing", and reads the exit code off "summary".  Exit codes: 0 when all
checks pass (or a command has no checks), 1 when at least one check fails,
2 on input errors (malformed documents, violated preconditions, exceeded
budgets) and 3 on an internal error; after 2 or 3 no partial report is
emitted.  Reports are deterministic for fixed inputs up to the "timing"
field.  `run` writes each report with `dumps`, this module's own JSON
writer, byte for byte as the stdlib's `json.dumps` writes it with an indent
of 2: with an indent set, the stdlib runs its pure-Python encoder.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import ehrhart
from .ehrhart import (
    em_reciprocity_check,
    fan_from_json,
    hpolytope_from_json,
    normal_fan_of,
    pruned_reciprocity_check,
    unit_cube,
)
from .errors import GpcountError, InputFormatError, check_budget
from .generators import (
    random_hypergraph,
    random_hypergraphic_setfn,
    random_rational_box,
    random_rational_simplex,
)
from .hypergraph import (
    acyclic_headings,
    chromatic_count,
    chromatic_polynomial,
    compatible_pairs_count,
    hypergraph_from_json,
    hypergraphic_setfn,
    vertices_via_headings,
)
from .permutahedron import GPerm, face_lattice_to_json
from .polynomial import Polynomial
from .report import Report
from .setfn import setfn_from_json, setfn_from_vertices


def dumps(value, pad: str = "\n") -> str:
    """The stdlib's `json.dumps` with an indent of 2, for dicts with str
    keys, lists, str, int, finite float (`timing` is the only float), bool
    and None; anything else raises TypeError.  `pad` is the newline and
    indent of the line value starts on; callers leave it at its default.  A
    list of only ints (bools excluded) or only strings is written with one
    join."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = []
        for key, item in value.items():  # the encoder refuses non-str keys
            items.append(encode_basestring_ascii(key) + ": " + dumps(item, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, value)
        else:
            items = [dumps(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is float:
        return float.__repr__(value)
    raise TypeError(f"{kind.__name__} is not JSON serializable")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InputFormatError(f"{path}: JSON nested too deeply to decode") from None


def _load_setfn(path: str):
    return setfn_from_json(_load_json(path))


def _positive(kind: str):
    def convert(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{kind} must be a positive integer")
        return value
    return convert


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    on it, so every `run` shares it."""
    parser = argparse.ArgumentParser(
        prog="gpcount",
        description="Exact counting polynomials and reciprocity checks for "
                    "generalized permutahedra, hypergraph colorings, and "
                    "lattice points.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi", help="direction-count polynomial and reciprocity "
                                   "for a submodular set function")
    p.add_argument("--setfn", required=True, help="set-function JSON file")
    p.add_argument("--k", type=int, default=0, help="face dimension class (default 0)")
    p.add_argument("--m-max", type=_positive("--m-max"), default=3)

    p = sub.add_parser("faces", help="face lattice of a submodular set function")
    p.add_argument("--setfn", required=True)

    p = sub.add_parser("hg-chromatic", help="proper-coloring polynomial of a hypergraph")
    p.add_argument("--hg", required=True, help="hypergraph JSON file")
    p.add_argument("--m", type=_positive("--m"), default=None,
                   help="also report the count at this number of colors")

    p = sub.add_parser("hg-headings", help="acyclic headings and their in-degree vectors")
    p.add_argument("--hg", required=True)

    p = sub.add_parser("hg-reciprocity", help="coloring/heading reciprocity checks")
    p.add_argument("--hg", required=True)
    p.add_argument("--m-max", type=_positive("--m-max"), default=3)

    p = sub.add_parser("ehrhart", help="dilation-count quasipolynomial and its "
                                       "interior reciprocity")
    p.add_argument("--poly", required=True, help="H-polytope JSON file")
    p.add_argument("--degree", type=int, default=None,
                   help="declared degree (default: ambient dimension)")
    p.add_argument("--period", type=_positive("--period"), default=1)
    p.add_argument("--t-max", type=_positive("--t-max"), default=4)

    p = sub.add_parser("pruned", help="pruned counts against a complete fan "
                                      "and their reciprocity")
    p.add_argument("--poly", required=True)
    p.add_argument("--fan", default=None, help="fan JSON file")
    p.add_argument("--setfn", default=None,
                   help="use the normal fan of this set function's polytope")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--period", type=_positive("--period"), default=1)
    p.add_argument("--t-max", type=_positive("--t-max"), default=4)

    p = sub.add_parser("verify-all", help="seeded random self-verification suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=_positive("--trials"), default=5)

    return parser


def cmd_chi(args) -> tuple[dict, Report | None]:
    check_budget(2 * args.m_max, ehrhart.LOOP_BUDGET, "checks")
    P = GPerm(_load_setfn(args.setfn))
    poly, report = P.verify_reciprocity(args.k, args.m_max)
    payload = {
        "command": "chi",
        "d": P.d,
        "k": args.k,
        "polynomial": poly.to_json(),
    }
    return payload, report


def cmd_faces(args) -> tuple[dict, Report | None]:
    P = GPerm(_load_setfn(args.setfn))
    payload = {"command": "faces"}
    payload.update(face_lattice_to_json(P))
    return payload, None


def cmd_hg_chromatic(args) -> tuple[dict, Report | None]:
    h, names = hypergraph_from_json(_load_json(args.hg))
    payload = {
        "command": "hg-chromatic",
        "nodes": list(names),
        "polynomial": chromatic_polynomial(h).to_json(),
    }
    if args.m is not None:
        payload["m"] = args.m
        payload["count"] = chromatic_count(h, args.m)
    return payload, None


def cmd_hg_headings(args) -> tuple[dict, Report | None]:
    h, names = hypergraph_from_json(_load_json(args.hg))
    acyclic = acyclic_headings(h)
    vectors = sorted(vertices_via_headings(h, acyclic))
    payload = {
        "command": "hg-headings",
        "nodes": list(names),
        "acyclic_count": len(acyclic),
        "headings": [[names[head - 1] for head in heads] for heads in acyclic],
        "indegree_vectors": [list(v) for v in vectors],
    }
    return payload, None


def _hg_reciprocity_report(h, P: GPerm, acyclic: list, m_max: int) -> tuple[Polynomial, Report]:
    """The chromatic polynomial of h and the report of its identities;
    `acyclic` is `acyclic_headings(h)`."""
    poly = chromatic_polynomial(h)
    sign = (-1) ** h.d
    report = Report()
    for m in range(1, m_max + 1):
        report.check(f"coloring count m={m}", chromatic_count(h, m), P.chi_count(0, m))
    for m in range(1, m_max + 1):
        value = sign * poly(-m)
        pairs = compatible_pairs_count(h, m)
        report.check(f"negative m={m} vs compatible pairs", value, pairs)
        report.check(f"compatible pairs m={m} vs vertex sum", pairs,
                     P.reciprocity_rhs(0, m))
    report.check("negative m=1 vs acyclic headings", sign * poly(-1),
                 len(acyclic))
    return poly, report


def cmd_hg_reciprocity(args) -> tuple[dict, Report | None]:
    check_budget(3 * args.m_max + 1, ehrhart.LOOP_BUDGET, "checks")
    h, names = hypergraph_from_json(_load_json(args.hg))
    P = GPerm(hypergraphic_setfn(h))
    poly, report = _hg_reciprocity_report(h, P, acyclic_headings(h), args.m_max)
    payload = {
        "command": "hg-reciprocity",
        "nodes": list(names),
        "polynomial": poly.to_json(),
    }
    return payload, report


def cmd_ehrhart(args) -> tuple[dict, Report | None]:
    poly = hpolytope_from_json(_load_json(args.poly))
    degree = poly.d if args.degree is None else args.degree
    qp, report = em_reciprocity_check(poly, degree, args.period, args.t_max)
    payload = {
        "command": "ehrhart",
        "degree": degree,
        "quasipolynomial": qp.to_json(),
    }
    return payload, report


def cmd_pruned(args) -> tuple[dict, Report | None]:
    poly = hpolytope_from_json(_load_json(args.poly))
    if (args.fan is None) == (args.setfn is None):
        raise GpcountError("pass exactly one of --fan and --setfn")
    if args.fan is not None:
        fan = fan_from_json(_load_json(args.fan))
    else:
        fan = normal_fan_of(GPerm(_load_setfn(args.setfn)))
    degree = poly.d if args.degree is None else args.degree
    inner, report = pruned_reciprocity_check(poly, fan, degree, args.period, args.t_max)
    payload = {
        "command": "pruned",
        "degree": degree,
        "inner_quasipolynomial": inner.to_json(),
    }
    return payload, report


# The most checks one trial of `verify_all` makes: 1 round trip, 16 direction
# checks (4 for each k < d <= 4), 1 heading check, 7 hypergraph checks and 3
# for each of the two dilation counts and the pruned count.
CHECKS_PER_TRIAL = 34


def verify_all(seed: int, trials: int) -> Report:
    """Run every reciprocity and round-trip identity on seeded random instances."""
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    check_budget(CHECKS_PER_TRIAL * trials, ehrhart.LOOP_BUDGET, "checks")
    rng = random.Random(seed)
    report = Report()
    for trial in range(1, trials + 1):
        tag = f"trial {trial}"

        z = random_hypergraphic_setfn(rng, max_d=5)
        P = GPerm(z)
        report.check(f"{tag}: set-function round trip (d={z.d})",
                     setfn_from_vertices(P.vertices) == z, True)

        ks = range(P.d) if P.d <= 4 else (0,)
        for k in ks:
            report.merge(P.verify_reciprocity(k, 2)[1], f"{tag}: directions d={P.d}")

        h = random_hypergraph(rng, max_d=5, max_edges=5)
        Ph = GPerm(hypergraphic_setfn(h))
        acyclic = acyclic_headings(h)
        report.check(f"{tag}: heading vertex description (d={h.d})",
                     vertices_via_headings(h, acyclic) == set(Ph.vertices), True)
        report.merge(_hg_reciprocity_report(h, Ph, acyclic, 2)[1], f"{tag}: hypergraph d={h.d}")

        qbox, deg, period = random_rational_box(rng)
        report.merge(em_reciprocity_check(qbox, deg, period, 3)[1],
                     f"{tag}: dilation counts, box d={deg}")
        qsim, deg, period = random_rational_simplex(rng)
        report.merge(em_reciprocity_check(qsim, deg, period, 3)[1],
                     f"{tag}: dilation counts, simplex d={deg}")

        zf = random_hypergraphic_setfn(rng, max_d=3)
        Pf = GPerm(zf)
        report.merge(
            pruned_reciprocity_check(unit_cube(Pf.d), normal_fan_of(Pf), Pf.d, 1, 3)[1],
            f"{tag}: pruned counts d={Pf.d}")
    return report


def cmd_verify_all(args) -> tuple[dict, Report | None]:
    report = verify_all(args.seed, args.trials)
    payload = {"command": "verify-all", "seed": args.seed, "trials": args.trials}
    return payload, report


COMMANDS = {
    "chi": cmd_chi,
    "faces": cmd_faces,
    "hg-chromatic": cmd_hg_chromatic,
    "hg-headings": cmd_hg_headings,
    "hg-reciprocity": cmd_hg_reciprocity,
    "ehrhart": cmd_ehrhart,
    "pruned": cmd_pruned,
    "verify-all": cmd_verify_all,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage diagnostic to stderr
        return 0 if not exc.code else 2
    start = time.perf_counter()
    try:
        payload, report = COMMANDS[args.command](args)
        if report is not None:
            payload.update(report.to_json())
    except (GpcountError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    payload["timing"] = round(time.perf_counter() - start, 6)
    print(dumps(payload))
    return 1 if payload.get("summary", {}).get("failures") else 0


def main() -> None:
    raise SystemExit(run())
