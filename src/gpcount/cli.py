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
emitted.  Reports are deterministic for fixed inputs up to the "timing"
field.  `run` writes each report with `dumps`, this module's own JSON
writer, byte for byte as the stdlib's `json.dumps` writes it with an indent
of 2: with an indent set, the stdlib runs its pure-Python encoder.  The
face rows of a `faces` report come as a `FaceRows` list, whose rows `dumps`
writes with one string template each, not one recursive call per value.

The four commands that build a `GPerm` from their input (`chi`, `faces`,
`pruned --setfn` and `hg-reciprocity`) get it from `_polytope`, which keeps
the last one it built.  Its key is the `SetFn` value, compared and hashed
by its exact integer form `SetFn.scaled` (so a parsed document and an equal
set function built from integers are one key), together with
`errors.WORK_BUDGET` at call time, so a process that calls `run` more than
once builds the vertices and face map of a repeated set function once, and
a kept polytope refuses exactly what a fresh one would.  A document
rewritten in place is a new key, and `verify-all` builds its own polytopes
without reading or replacing the kept one.

`ehrhart`, `pruned` and `verify-all` make their reciprocity checks through
`_reciprocity`, which keeps the last 64: the fit and the check entries of
each `em_reciprocity_check` and `pruned_reciprocity_check`, and hands each
caller a new `Report` of those entries.  Its key is the check, its
arguments with their types (so a `True` or `2.0` degree misses an int one
and is refused as before), and `errors.WORK_BUDGET`, `errors.LOOP_BUDGET`
and `ehrhart.SCAN_DEPTH` at call time, so a kept check refuses exactly what
a fresh one would.  Errors are never kept.  An entry holds its polytope and
fan, about 1 MB with the normal fan of pi_6.  Nothing else in this module
is kept between calls.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import time
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

from . import ehrhart, errors
from .ehrhart import (
    em_reciprocity_check,
    fan_from_json,
    hpolytope_from_json,
    normal_fan_of,
    pruned_reciprocity_check,
    unit_cube,
)
from .errors import GpcountError, InputFormatError, check_budget, require_integer
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
from .permutahedron import FaceRows, GPerm, face_lattice_to_json
from .polynomial import Polynomial, QuasiPolynomial
from .report import Report
from .setfn import SetFn, setfn_from_json, setfn_from_vertices


def dumps(value, pad: str = "\n") -> str:
    """The stdlib's `json.dumps` with an indent of 2, for dicts with str
    keys, lists, str, int, finite float (`timing` is the only float), bool
    and None; anything else raises TypeError.  `pad` is the newline and
    indent of the line value starts on; callers leave it at its default.  A
    list of only ints (bools excluded) or only strings is written with one
    join.  A `FaceRows` list whose rows all have the shape {"dim": int,
    "vertices": [int, ...]} (keys in that order, at least one id) is written
    with one template per row (`_face_rows`); otherwise it is written as a
    plain list, with the same bytes or the same TypeError."""
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
    if kind is list or kind is FaceRows:
        if not value:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, value)
        else:
            items = _face_rows(value, inner) if kind is FaceRows else None
            if items is None:
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


_ROW_KEYS = ("dim", "vertices")


def _face_rows(rows: FaceRows, pad: str) -> list[str] | None:
    """The rows of a `faces` report written at pad with one template each,
    the same bytes as `dumps` gives row by row; None unless every row is a
    dict of an int "dim" and a nonempty list of int "vertices", in that
    order, so that any other row goes through `dumps` as it would in a
    plain list."""
    if set(map(type, rows)) != {dict} or set(map(tuple, rows)) != {_ROW_KEYS}:
        return None
    dims = list(map(itemgetter("dim"), rows))
    ids = list(map(itemgetter("vertices"), rows))
    if (set(map(type, dims)) != {int} or set(map(type, ids)) != {list} or not all(ids)
            or set(map(type, chain.from_iterable(ids))) != {int}):
        return None
    key_pad = pad + "  "
    id_pad = key_pad + "  "
    heads = {dim: "{" + key_pad + '"dim": ' + int.__repr__(dim) + "," + key_pad
             + '"vertices": [' + id_pad for dim in set(dims)}
    sep = "," + id_pad
    tail = key_pad + "]" + pad + "}"
    return [heads[dim] + sep.join(map(int.__repr__, vs)) + tail for dim, vs in zip(dims, ids)]


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
    z and `errors.WORK_BUDGET` are unchanged since."""
    return _last_polytope(z, errors.WORK_BUDGET)


@lru_cache(maxsize=1)
def _last_polytope(z: SetFn, budget: int) -> GPerm:
    # the budget is in the key only: the face map reads it when it is built
    return GPerm(z)


def _reciprocity(check: Callable, *args) -> tuple[QuasiPolynomial, Report]:
    """`check(*args)` for `em_reciprocity_check` or
    `pruned_reciprocity_check`: the fit and a new `Report` of the check
    entries, which are kept for equal arguments of equal types and equal
    `errors.WORK_BUDGET`, `errors.LOOP_BUDGET` and `ehrhart.SCAN_DEPTH`."""
    fit, entries = _kept_reciprocity(check, errors.WORK_BUDGET, errors.LOOP_BUDGET,
                                     ehrhart.SCAN_DEPTH, *args)
    return fit, Report(list(entries))


# A `verify` pass of the benchmark uses 49 keys, so none is evicted; an entry
# keeps its polytope and fan, about 1 MB for the normal fan of pi_6.
@lru_cache(maxsize=64, typed=True)
def _kept_reciprocity(check: Callable, work_budget: int, loop_budget: int, scan_depth: int,
                      *args) -> tuple[QuasiPolynomial, tuple]:
    # the budgets are in the key only: the check reads them as it runs
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
    return face_lattice_to_json(_polytope(_load_setfn(args.setfn))), None


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
    return {
        "nodes": list(names),
        "acyclic_count": len(acyclic),
        "headings": [[names[head - 1] for head in heads] for heads in acyclic],
        "indegree_vectors": [list(v) for v in vectors],
    }, None


def _hg_reciprocity_report(h, P: GPerm, acyclic: list, m_max: int) -> tuple[Polynomial, Report]:
    """The chromatic polynomial of h and the report of its identities;
    `acyclic` is `acyclic_headings(h)`."""
    poly = chromatic_polynomial(h)
    odd = h.d % 2  # (-1)^d poly(-m) is poly(-m), negated when d is odd
    report = Report()
    for m in range(1, m_max + 1):
        report.check(f"coloring count m={m}", chromatic_count(h, m), P.chi_count(0, m))
    for m in range(1, m_max + 1):
        value = -poly(-m) if odd else poly(-m)
        pairs = compatible_pairs_count(h, m)
        report.check(f"negative m={m} vs compatible pairs", value, pairs)
        report.check(f"compatible pairs m={m} vs vertex sum", pairs,
                     P.reciprocity_rhs(0, m))
    report.check("negative m=1 vs acyclic headings", -poly(-1) if odd else poly(-1),
                 len(acyclic))
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


# The most checks one trial of `verify_all` makes: 1 round trip, 16 direction
# checks (4 for each k < d <= 4), 1 heading check, 7 hypergraph checks and 3
# for each of the two dilation counts and the pruned count.
CHECKS_PER_TRIAL = 34


def verify_all(seed: int, trials: int) -> Report:
    """Run every reciprocity and round-trip identity on seeded random instances."""
    require_integer("trials", trials, 1)
    check_budget(CHECKS_PER_TRIAL * trials, errors.LOOP_BUDGET, "checks")
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
        report.merge(_reciprocity(em_reciprocity_check, qbox, deg, period, 3)[1],
                     f"{tag}: dilation counts, box d={deg}")
        qsim, deg, period = random_rational_simplex(rng)
        report.merge(_reciprocity(em_reciprocity_check, qsim, deg, period, 3)[1],
                     f"{tag}: dilation counts, simplex d={deg}")

        zf = random_hypergraphic_setfn(rng, max_d=3)
        Pf = GPerm(zf)
        report.merge(_reciprocity(pruned_reciprocity_check, unit_cube(Pf.d), normal_fan_of(Pf),
                                  Pf.d, 1, 3)[1],
                     f"{tag}: pruned counts d={Pf.d}")
    return report


def cmd_verify_all(args) -> tuple[dict, Report | None]:
    return {"seed": args.seed, "trials": args.trials}, verify_all(args.seed, args.trials)


_SETFN = Flag("--setfn", str, "set-function JSON file", required=True)
_HG = Flag("--hg", str, "hypergraph JSON file", required=True)
_POLY = Flag("--poly", str, "H-polytope JSON file", required=True)
_DILATION = (
    Flag("--degree", _integer, "declared degree (default: ambient dimension)"),
    Flag("--period", _positive, "declared period", 1),
    Flag("--t-max", _positive, "check the dilations t = 1..T_MAX", 4),
)

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
                                    "reciprocity", (_POLY, *_DILATION)),
    "pruned": Command(cmd_pruned, "pruned counts against a complete fan and their "
                                  "reciprocity", (
        _POLY,
        Flag("--fan", str, "fan JSON file"),
        Flag("--setfn", str, "use the normal fan of this set function's polytope"),
        *_DILATION,
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
