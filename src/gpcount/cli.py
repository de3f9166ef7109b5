"""Command-line interface.

`COMMANDS` is the one table of commands: each maps to its handler, its
one-line help and its flags, and each flag carries its converter, default,
required mark and help text.  `parse` reads argv against that table, with no
parser object to build: flags go by their full names only, as `--flag value`
or `--flag=value`, the last of a repeated flag wins, and a flag integer is an
optional sign followed by ASCII digits.  `-h`/`--help` prints the help of the
top level or of one command to stdout and exits 0; misuse prints a
`usage: gpcount ...` line and one `error:` line to stderr and exits 2.

Every command prints a single JSON report to stdout; diagnostics go to
stderr.  A command returns its own fields and its check `Report` (None when
it has no checks); `run` alone writes the report around them: "command",
the fields, the report's "checks" and "summary", then "timing", and it
reads the exit code off "summary".  Exit codes: 0 when all checks pass (or
a command has no checks), 1 when at least one check fails,
2 on input errors (malformed documents, violated preconditions, exceeded
budgets) and 3 on an internal error; after 2 or 3 no partial report is
emitted.  `verify-all` draws its own instances, so an error other than a
budget refusal raised on one of them is a failed check of its trial and
family, not exit 2.  Reports are deterministic for fixed inputs up to the
"timing" field.  `run` writes each report with `dumps`, this module's own JSON
writer, byte for byte as the stdlib's `json.dumps` writes it with an indent
of 2: with an indent set, the stdlib runs its pure-Python encoder.  The
faces of a `faces` report are a list of `Face` values, which `dumps`
writes as {"dim", "vertices"} dicts, the ids read off each mask's binary
digits after its leading sentinel bit, and the checks of a report are a
list of `CheckEntry` values, which `dumps` writes as {"label", "lhs",
"rhs", "pass"} dicts: a list of only `Face`s or of only `CheckEntry`s is
written with one string template per item, not one recursive call per
value, and a lone `Face` or `CheckEntry`, which no report holds, is
refused.  A list of nonempty rows holding only ints or only strs, as the
headings and in-degree vectors of `hg-headings` and the vertices of
`faces` are, is written with one join per row.

The four commands that build a `GPerm` from their input (`chi`, `faces`,
`pruned --setfn` and `hg-reciprocity`) get it from `_polytope`, which keeps
the last one it built.  Its key is the `SetFn` value, compared and hashed
by its exact integer form `SetFn.scaled` (so a parsed document and an equal
set function built from integers are one key), together with
`errors.limits()`, every limit at call time: `errors` owns that part of the
key of each kept result.  So a process that calls `run` more than once
builds the vertices and face map of a repeated set function once, and a
kept polytope refuses exactly what a fresh one would.  A document rewritten
in place is a new key, and `verify-all` builds its own polytopes without
reading or replacing the kept one.

`ehrhart`, `pruned` and `verify-all` make their reciprocity checks through
`_reciprocity`, which keeps the last 64: the fit and the check entries of
each `em_reciprocity_check` and `pruned_reciprocity_check`, and hands each
caller a new `Report` of those entries.  Its key is the check, its
arguments with their types (so a `True` or `2.0` degree misses an int one
and is refused as before), and `errors.limits()` at call time, so a kept
check refuses exactly what a fresh one would.  Errors are never kept.  An
entry holds its polytope and fan, about 0.2 MB with the normal fan of pi_6.
Nothing else in this module is kept between calls.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import time
from functools import lru_cache, partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

from . import errors
from .ehrhart import (
    em_reciprocity_check,
    fan_from_json,
    hpolytope_from_json,
    normal_fan_of,
    pruned_reciprocity_check,
    unit_cube,
)
from .errors import (
    BudgetExceededError,
    GpcountError,
    InputFormatError,
    check_budget,
    require_integer,
)
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
from .permutahedron import Face, GPerm, faces_report
from .polynomial import Polynomial, QuasiPolynomial
from .report import CheckEntry, Report, reflected
from .setfn import SetFn, setfn_from_json, setfn_from_vertices


def dumps(value, pad: str = "\n") -> str:
    """The stdlib's `json.dumps` with an indent of 2, for dicts with str
    keys, lists, str, int, finite float (`timing` is the only float), bool
    and None, and for lists of only `Face`s or of only `CheckEntry`s (exact
    types, as `GPerm` and `Report` build them): a `Face` is written as its
    dict {"dim": dim, "vertices": [ids]}, ids increasing, and a
    `CheckEntry` as its dict {"label": label, "lhs": str(lhs), "rhs":
    str(rhs), "pass": passed}, a bool side as "true" or "false".  Anything
    else, tuples and other named tuples included, and a `Face` or a
    `CheckEntry` outside such a list, raises TypeError.  A `Face` whose
    mask is below 2 or holds only the sentinel bit, its top one, raises
    ValueError: no polytope has a face without vertices.  `pad` is the
    newline and indent of the line value starts on; callers leave it at
    its default.  A list of only ints (bools excluded) or only strings is
    written with one join, a list of only `Face`s, as the faces of a
    `faces` report are, with one template per face (`_face_items`), a list
    of only `CheckEntry`s, as a report's checks are, with one template per
    check (`_check_items`), and a list of nonempty lists whose items,
    taken together, are only ints (bools excluded) or only strings, as the
    rows of `hg-headings` and the vertices of `faces` are, with one join
    per row (`_row_items`); any other list is written item by item."""
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
        elif kinds == {Face}:
            items = _face_items(value, inner)
        elif kinds == {CheckEntry}:
            items = _check_items(value, inner)
        elif kinds == {list} and all(value) and (
                cells := set(map(type, chain.from_iterable(value)))) in ({int}, {str}):
            items = _row_items(value, inner, int.__repr__ if cells == {int}
                               else encode_basestring_ascii)
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


def _face_items(faces: list[Face], pad: str) -> list[str]:
    """Faces written at pad as `dumps` writes their dicts, from one head
    string per dimension and one string per vertex id up to the highest
    one, each face's ids read off its mask from the top bit down, so in
    increasing order."""
    key_pad = pad + "  "
    tail = key_pad + "]" + pad + "}"
    heads: dict[int, str] = {}
    ids = [key_pad + "  " + str(i) for i in range(max(faces).mask.bit_length() - 1)]
    items = []
    for mask, dim in faces:
        head = heads.get(dim) or heads.setdefault(
            dim, "{" + key_pad + '"dim": ' + int.__repr__(dim) + "," + key_pad + '"vertices": [')
        if mask < 2 or not mask & mask - 1:  # no bit below the sentinel
            raise ValueError("a face has at least one vertex")
        top = mask.bit_length() - 1  # the sentinel's place, the vertex count
        rest = mask ^ 1 << top
        row = []
        while rest:
            n = rest.bit_length()  # bit n - 1 is vertex id top - n
            row.append(ids[top - n])
            rest ^= 1 << n - 1
        items.append(head + ",".join(row) + tail)
    return items


def _row_items(rows: list[list], pad: str, write: Callable[[object], str]) -> list[str]:
    """Nonempty rows of only ints or only strs written at pad as `dumps`
    writes them, each cell by `write` and each row by one join."""
    cell_pad = pad + "  "
    head, sep, tail = "[" + cell_pad, "," + cell_pad, pad + "]"
    return [head + sep.join(map(write, row)) + tail for row in rows]


def _check_items(checks: list[CheckEntry], pad: str) -> list[str]:
    """Checks written at pad as `dumps` writes their dicts, each from the
    same four key strings around its label, its two sides and its verdict."""
    key_pad = pad + "  "
    head = "{" + key_pad + '"label": '
    lhs = "," + key_pad + '"lhs": '
    rhs = "," + key_pad + '"rhs": '
    verdict = "," + key_pad + '"pass": '
    tail = pad + "}"
    return [head + encode_basestring_ascii(check.label)
            + lhs + encode_basestring_ascii(_side(check.lhs))
            + rhs + encode_basestring_ascii(_side(check.rhs))
            + verdict + ("true" if check.passed else "false") + tail
            for check in checks]


def _side(value) -> str:
    """One side of a check as its report writes it: a bool as "true" or
    "false", anything else as its str."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InputFormatError(f"{path}: JSON nested too deeply to decode") from None


def _load_setfn(path: str):
    return setfn_from_json(_load_json(path))


def _polytope(z: SetFn) -> GPerm:
    """The generalized permutahedron of z, the one the last call built when
    z and `errors.limits()` are unchanged since."""
    return _last_polytope(z, errors.limits())


@lru_cache(maxsize=1)
def _last_polytope(z: SetFn, limits: tuple[int, ...]) -> GPerm:
    # the limits are in the key only: the polytope's guards read them as they run
    return GPerm(z)


def _reciprocity(check: Callable, *args) -> tuple[QuasiPolynomial, Report]:
    """`check(*args)` for `em_reciprocity_check` or
    `pruned_reciprocity_check`: the fit and a new `Report` of the check
    entries, which are kept for equal arguments of equal types and equal
    `errors.limits()`."""
    fit, entries = _kept_reciprocity(check, errors.limits(), *args)
    return fit, Report(list(entries))


# A `verify` pass of the benchmark uses 49 keys, so none is evicted; an entry
# keeps its polytope and fan, about 0.2 MB for the normal fan of pi_6.
@lru_cache(maxsize=64, typed=True)
def _kept_reciprocity(check: Callable, limits: tuple[int, ...],
                      *args) -> tuple[QuasiPolynomial, tuple]:
    # the limits are in the key only: the check reads them as it runs
    fit, report = check(*args)
    return fit, tuple(report.entries)


class UsageError(Exception):
    """Misuse of the command line.  `command` names the command whose usage
    line goes with the message, None for the top level."""

    def __init__(self, command: str | None, message: str):
        super().__init__(message)
        self.command = command


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """A flag integer: an optional sign and ASCII digits, with no spaces,
    underscores or other scripts' digits.  Flags are stricter than
    documents, whose numbers may carry surrounding whitespace."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"must be an integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    if not _INTEGER.fullmatch(text) or int(text) < 1:
        raise ValueError(f"must be a positive integer, got {text!r}")
    return int(text)


class Flag(NamedTuple):
    """One flag of a command, given as `--name VALUE` or `--name=VALUE`.
    `convert` (str, `_integer` or `_positive`) turns the text into the
    value, raising ValueError; an absent flag takes `default`."""
    name: str
    convert: Callable[[str], object]
    help: str
    default: object = None
    required: bool = False

    @property
    def dest(self) -> str:
        """The attribute the value is stored under: `--m-max` gives `m_max`."""
        return self.name[2:].replace("-", "_")


class Command(NamedTuple):
    """One command: its handler, which returns the command's own report
    fields and its check `Report` (None without checks), its one-line help
    and flags; `exactly_one` names flags of which exactly one must be given."""
    handler: Callable[[SimpleNamespace], tuple[dict, Report | None]]
    help: str
    flags: tuple[Flag, ...]
    exactly_one: tuple[str, ...] = ()


def cmd_chi(args) -> tuple[dict, Report | None]:
    check_budget(2 * args.m_max, errors.LOOP_BUDGET, "checks")
    P = _polytope(_load_setfn(args.setfn))
    poly, report = P.verify_reciprocity(args.k, args.m_max)
    return {"d": P.d, "k": args.k, "polynomial": poly.to_json()}, report


def cmd_faces(args) -> tuple[dict, Report | None]:
    return faces_report(_polytope(_load_setfn(args.setfn))), None


def cmd_hg_chromatic(args) -> tuple[dict, Report | None]:
    h, names = hypergraph_from_json(_load_json(args.hg))
    fields = {"nodes": list(names), "polynomial": chromatic_polynomial(h).to_json()}
    if args.m is not None:
        fields["m"] = args.m
        fields["count"] = chromatic_count(h, args.m)
    return fields, None


def cmd_hg_headings(args) -> tuple[dict, Report | None]:
    h, names = hypergraph_from_json(_load_json(args.hg))
    acyclic = acyclic_headings(h)
    vectors = sorted(vertices_via_headings(h, acyclic))
    name = ("", *names).__getitem__  # node v is names[v - 1]
    return {
        "nodes": list(names),
        "acyclic_count": len(acyclic),
        "headings": [list(map(name, heads)) for heads in acyclic],
        "indegree_vectors": [list(v) for v in vectors],
    }, None


def _hg_reciprocity_report(h, P: GPerm, acyclic: list, m_max: int) -> tuple[Polynomial, Report]:
    """The chromatic polynomial of h and the report of its identities;
    `acyclic` is `acyclic_headings(h)`.  Each reflection (-1)^d poly(-m) is
    `reflected(poly, h.d, m)`, in a loop of its own and not
    `Report.reflections`: the check of the compatible pairs against the
    vertex sum at m comes right after the reflection check at m."""
    poly = chromatic_polynomial(h)
    report = Report()
    for m in range(1, m_max + 1):
        report.check(f"coloring count m={m}", chromatic_count(h, m), P.chi_count(0, m))
    for m in range(1, m_max + 1):
        value = reflected(poly, h.d, m)
        pairs = compatible_pairs_count(h, m)
        report.check(f"negative m={m} vs compatible pairs", value, pairs)
        report.check(f"compatible pairs m={m} vs vertex sum", pairs,
                     P.reciprocity_rhs(0, m))
    report.check("negative m=1 vs acyclic headings", reflected(poly, h.d, 1), len(acyclic))
    return poly, report


def cmd_hg_reciprocity(args) -> tuple[dict, Report | None]:
    check_budget(3 * args.m_max + 1, errors.LOOP_BUDGET, "checks")
    h, names = hypergraph_from_json(_load_json(args.hg))
    P = _polytope(hypergraphic_setfn(h))
    poly, report = _hg_reciprocity_report(h, P, acyclic_headings(h), args.m_max)
    return {"nodes": list(names), "polynomial": poly.to_json()}, report


def cmd_ehrhart(args) -> tuple[dict, Report | None]:
    poly = hpolytope_from_json(_load_json(args.poly))
    degree = poly.d if args.degree is None else args.degree
    qp, report = _reciprocity(em_reciprocity_check, poly, degree, args.period, args.t_max)
    return {"degree": degree, "quasipolynomial": qp.to_json()}, report


def cmd_pruned(args) -> tuple[dict, Report | None]:
    poly = hpolytope_from_json(_load_json(args.poly))
    if args.fan is not None:
        fan = fan_from_json(_load_json(args.fan))
    else:
        fan = normal_fan_of(_polytope(_load_setfn(args.setfn)))
    degree = poly.d if args.degree is None else args.degree
    inner, report = _reciprocity(pruned_reciprocity_check, poly, fan, degree, args.period,
                                 args.t_max)
    return {"degree": degree, "inner_quasipolynomial": inner.to_json()}, report


# The depth of one trial of `verify_all`: m = 1..TRIAL_M colors for the
# direction and hypergraph checks, t = 1..TRIAL_T dilations for the two
# dilation counts and the pruned count.
TRIAL_M = 2
TRIAL_T = 3


def _directions(rng: random.Random, report: Report, tag: str) -> None:
    """A drawn hypergraphic set function: its round trip through its
    vertices, then the direction-count reciprocity at every k < d, or at
    k = 0 alone when d = 5."""
    z = random_hypergraphic_setfn(rng, max_d=5)
    P = GPerm(z)
    report.check(f"{tag}: set-function round trip (d={z.d})",
                 setfn_from_vertices(P.vertices) == z, True)
    for k in range(P.d) if P.d <= 4 else (0,):
        report.merge(P.verify_reciprocity(k, TRIAL_M)[1], f"{tag}: directions d={P.d}")


def _hypergraph(rng: random.Random, report: Report, tag: str) -> None:
    """A drawn hypergraph: its polytope's vertices from its acyclic
    headings, then its coloring and heading identities."""
    h = random_hypergraph(rng, max_d=5, max_edges=5)
    Ph = GPerm(hypergraphic_setfn(h))
    acyclic = acyclic_headings(h)
    report.check(f"{tag}: heading vertex description (d={h.d})",
                 vertices_via_headings(h, acyclic) == set(Ph.vertices), True)
    report.merge(_hg_reciprocity_report(h, Ph, acyclic, TRIAL_M)[1], f"{tag}: hypergraph d={h.d}")


def _dilation(shape: str, rng: random.Random, report: Report, tag: str) -> None:
    """A drawn rational box or simplex (`shape`): the reciprocity of its
    dilation counts.  The draw is read off this module at call time, so a
    patched binding is the one drawn from."""
    poly, deg, period = (random_rational_box if shape == "box" else random_rational_simplex)(rng)
    report.merge(_reciprocity(em_reciprocity_check, poly, deg, period, TRIAL_T)[1],
                 f"{tag}: dilation counts, {shape} d={deg}")


def _pruned(rng: random.Random, report: Report, tag: str) -> None:
    """The unit cube against the normal fan of a drawn hypergraphic
    polytope in d <= 3: the reciprocity of its pruned counts."""
    zf = random_hypergraphic_setfn(rng, max_d=3)
    Pf = GPerm(zf)
    report.merge(_reciprocity(pruned_reciprocity_check, unit_cube(Pf.d),
                              normal_fan_of(Pf), Pf.d, 1, TRIAL_T)[1],
                 f"{tag}: pruned counts d={Pf.d}")


# The families of one `verify_all` trial, in the order a trial runs and draws
# them: (name, the most checks it makes, run(rng, report, tag)).  Directions:
# 1 round trip and 2 * TRIAL_M checks for each k < d <= 4; hypergraph: 1
# heading check and 3 * TRIAL_M + 1 hypergraph checks.
FAMILIES = (("set function and directions", 1 + 4 * 2 * TRIAL_M, _directions),
            ("hypergraph", 1 + 3 * TRIAL_M + 1, _hypergraph),
            ("dilation counts, box", TRIAL_T, partial(_dilation, "box")),
            ("dilation counts, simplex", TRIAL_T, partial(_dilation, "simplex")),
            ("pruned counts", TRIAL_T, _pruned))
# The most checks one trial makes, what `--trials` is charged per trial.
CHECKS_PER_TRIAL = sum(most for _name, most, _run in FAMILIES)


def verify_all(seed: int, trials: int) -> Report:
    """Run every reciprocity and round-trip identity on seeded random
    instances: each trial runs every row of `FAMILIES` in order.  The trial
    drew the instances itself, so an error raised on them is a fault of the
    program, not of the input: a `GpcountError` or `ValueError` in a family
    becomes one failed check "trial <n>: <name>: error", its message against
    "no error", and the trial goes on.  A budget refusal is a limit, not a
    fault, and leaves as it came."""
    require_integer("trials", trials, 1)
    check_budget(CHECKS_PER_TRIAL * trials, errors.LOOP_BUDGET, "checks")
    rng = random.Random(seed)
    report = Report()
    for trial in range(1, trials + 1):
        tag = f"trial {trial}"
        for name, _most, run in FAMILIES:
            try:
                run(rng, report, tag)
            except BudgetExceededError:
                raise
            except (GpcountError, ValueError) as exc:
                report.check(f"{tag}: {name}: error", str(exc), "no error")
    return report


def cmd_verify_all(args) -> tuple[dict, Report | None]:
    return {"seed": args.seed, "trials": args.trials}, verify_all(args.seed, args.trials)


_SETFN = Flag("--setfn", str, "set-function JSON file", required=True)
_HG = Flag("--hg", str, "hypergraph JSON file", required=True)
_POLY = Flag("--poly", str, "H-polytope JSON file", required=True)
_DEGREE = Flag("--degree", _integer, "declared degree (default: ambient dimension)")
_T_MAX = Flag("--t-max", _positive, "check the dilations t = 1..T_MAX", 4)

# The command table: the only place that knows a command's flags and handler.
COMMANDS = {
    "chi": Command(cmd_chi, "direction-count polynomial and reciprocity for a "
                            "submodular set function", (
        _SETFN,
        Flag("--k", _integer, "face dimension class", 0),
        Flag("--m-max", _positive, "check m = 1..M_MAX", 3),
    )),
    "faces": Command(cmd_faces, "face lattice of a submodular set function", (_SETFN,)),
    "hg-chromatic": Command(cmd_hg_chromatic, "proper-coloring polynomial of a hypergraph", (
        _HG,
        Flag("--m", _positive, "also report the count at this number of colors"),
    )),
    "hg-headings": Command(cmd_hg_headings, "acyclic headings and their in-degree vectors",
                           (_HG,)),
    "hg-reciprocity": Command(cmd_hg_reciprocity, "coloring/heading reciprocity checks", (
        _HG,
        Flag("--m-max", _positive, "check m = 1..M_MAX colors", 3),
    )),
    "ehrhart": Command(cmd_ehrhart, "dilation-count quasipolynomial and its interior "
                                    "reciprocity", (
        _POLY, _DEGREE, Flag("--period", _positive, "declared period", 1), _T_MAX)),
    "pruned": Command(cmd_pruned, "pruned counts against a complete fan and their "
                                  "reciprocity", (
        _POLY,
        Flag("--fan", str, "fan JSON file"),
        Flag("--setfn", str, "use the normal fan of this set function's polytope"),
        _DEGREE,
        # the cones cut P into pieces with vertices of their own, so the
        # pruned counts have the pieces' period, often not P's
        Flag("--period", _positive, "declared period of the pieces that the fan's cones "
                                    "cut out of the polytope, not of the polytope "
                                    "(Beck-Zaslavsky)", 1),
        _T_MAX,
    ), exactly_one=("--fan", "--setfn")),
    "verify-all": Command(cmd_verify_all, "seeded random self-verification suite", (
        Flag("--seed", _integer, "random seed", 1),
        Flag("--trials", _positive, "number of seeded trials", 5),
    )),
}

_HELP = ("-h", "--help")
# argparse's rule for a token after a flag, kept so that every argv it
# accepted parses to the same values: the token is the flag's value unless it
# looks like a flag, that is, starts with "-" and is not "-", not a negative
# number, and holds no space unless it names a flag before any "=".
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_value(token: str, flags: dict) -> bool:
    if not token.startswith("-") or token == "-" or _NEGATIVE.match(token):
        return True
    return " " in token and token.partition("=")[0] not in flags


def parse(argv: Sequence[str]) -> SimpleNamespace:
    """The command line argv, without the program name, as a namespace:
    `command`, `help`, and one attribute per flag of the command (`--m-max`
    as `m_max`), which is its default when the flag is absent.  Flags are
    given by their full names as `--flag value` or `--flag=value`, the last
    of a repeated flag wins, and each value is converted where it is read.
    `-h` or `--help` in place of the command, or anywhere after a known
    command, gives `help` true and no flag attributes.  Misuse raises
    UsageError."""
    if not argv:
        raise UsageError(None, "a command is required")
    name = argv[0]
    if name in _HELP:
        return SimpleNamespace(command=None, help=True)
    command = COMMANDS.get(name)
    if command is None:
        raise UsageError(None, f"unknown command {name!r}")
    if any(token in _HELP for token in argv):
        return SimpleNamespace(command=name, help=True)
    flags = {flag.name: flag for flag in command.flags}
    values = {}
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        key, eq, text = token.partition("=")
        flag = flags.get(key)
        if flag is None:
            raise UsageError(name, f"unrecognized argument {token!r}")
        if not eq:
            if i == len(argv) or not _is_value(argv[i], flags):
                raise UsageError(name, f"{key} expects a value")
            text = argv[i]
            i += 1
        try:
            values[key] = flag.convert(text)
        except ValueError as exc:
            raise UsageError(name, f"{key} {exc}") from None
    for flag in command.flags:
        if flag.required and flag.name not in values:
            raise UsageError(name, f"{flag.name} is required")
    if command.exactly_one and sum(f in values for f in command.exactly_one) != 1:
        raise UsageError(name, f"pass exactly one of {' and '.join(command.exactly_one)}")
    args = SimpleNamespace(command=name, help=False)
    for flag in command.flags:
        setattr(args, flag.dest, values.get(flag.name, flag.default))
    return args


def _usage(command: str | None) -> str:
    """The usage line of one command, or of the top level for None."""
    if command is None:
        return f"usage: gpcount {{{','.join(COMMANDS)}}} [flags]"
    words = []
    for flag in COMMANDS[command].flags:
        word = f"{flag.name} {flag.dest.upper()}"
        words.append(word if flag.required else f"[{word}]")
    return f"usage: gpcount {command} {' '.join(words)}"


def _help_text(command: str | None) -> str:
    """What `-h` prints: the usage line, then the commands (top level) or
    one command's flags with their defaults."""
    if command is None:
        width = max(map(len, COMMANDS)) + 2
        rows = [f"  {name:<{width}}{c.help}" for name, c in COMMANDS.items()]
        return "\n".join([
            _usage(None), "",
            "Exact counting polynomials and reciprocity checks for generalized "
            "permutahedra, hypergraph colorings, and lattice points.", "",
            "commands:", *rows, "",
            "Run `gpcount COMMAND -h` for the flags of one command."])
    spec = COMMANDS[command]
    cells = []
    for flag in spec.flags:
        note = flag.help
        if flag.required:
            note += " (required)"
        elif flag.default is not None:
            note += f" (default {flag.default})"
        cells.append((f"{flag.name} {flag.dest.upper()}", note))
    cells.append((", ".join(_HELP), "show this help and exit"))
    width = max(len(left) for left, _ in cells) + 2
    lines = [_usage(command), "", spec.help]
    if spec.exactly_one:
        lines.append(f"Pass exactly one of {' and '.join(spec.exactly_one)}.")
    lines += ["", "flags:", *(f"  {left:<{width}}{note}" for left, note in cells)]
    return "\n".join(lines)


def _write(text: str) -> int:
    """Print text to stdout: 0, or 2 with one `error:` line when stdout is
    closed, as when a reader of the pipe stops early.  stdout is then pointed
    at devnull, so that the interpreter's flush at exit stays quiet."""
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        prog = "gpcount" if exc.command is None else f"gpcount {exc.command}"
        print(f"{_usage(exc.command)}\n{prog}: error: {exc}", file=sys.stderr)
        return 2
    if args.help:
        return _write(_help_text(args.command))
    start = time.perf_counter()
    try:
        fields, report = COMMANDS[args.command].handler(args)
        out = {"command": args.command, **fields}
        if report is not None:
            out.update(report.to_json())
    except (GpcountError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    out["timing"] = round(time.perf_counter() - start, 6)
    if _write(dumps(out)):
        return 2
    return 1 if out.get("summary", {}).get("failures") else 0


def main() -> None:
    raise SystemExit(run())
