"""Spans around calls into gpcount's modules, recorded from outside the program.

`Tracer.install()` replaces each traced function at every module binding that
refers to it (the CLI imports by name, so `gpcount.cli.inner_pruned_count` is
patched as well as `gpcount.ehrhart.inner_pruned_count`), and the methods on
their classes.  Each call records a span: id, parent id, request id, name,
start and end.  Spans stay in memory; self time is a span's duration minus
that of its direct children and the tracer's own bookkeeping around them.  Counts marked "computed" are derived from the
arguments and results at the boundary, not read from inside the program.

A traced name that is missing, or that a workload should hit and never does,
raises `TraceError`, so a rename shows up as an error and not as a zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from math import factorial, prod
from time import perf_counter

MODULES = ("rational", "polynomial", "setfn", "permutahedron", "hypergraph",
           "ehrhart", "generators", "cli")


class TraceError(RuntimeError):
    pass


def fubini(d: int) -> int:
    """Ordered set compositions of a d-set."""
    a = [1]
    for n in range(1, d + 1):
        a.append(sum(factorial(n) // (factorial(j) * factorial(n - j)) * a[n - j]
                     for j in range(1, n + 1)))
    return a[d]


def _box_points(poly, t: int) -> int:
    return prod(t * hi - t * lo + 1 for lo, hi in poly.bbox)


# Traced names, "module.function" or "module.Class.method".  The layer
# metrics below sum the self time of the named spans.
TRACED = (
    "rational.affine_rank",
    "polynomial.interpolate", "polynomial.interpolate_quasipoly",
    "setfn.SetFn.is_submodular",
    "permutahedron.vertices", "permutahedron.GPerm.face_lattice",
    "permutahedron.GPerm.count_k_faces", "permutahedron.GPerm.chi_count",
    "permutahedron.GPerm.chi_polynomial", "permutahedron.GPerm.reciprocity_rhs",
    "permutahedron.GPerm.verify_reciprocity",
    "hypergraph.hypergraphic_setfn", "hypergraph.chromatic_count",
    "hypergraph.chromatic_polynomial", "hypergraph.compatible_pairs_count",
    "hypergraph.acyclic_headings", "hypergraph.vertices_via_headings",
    "ehrhart.count_lattice", "ehrhart.ehrhart_quasipoly", "ehrhart.em_reciprocity_check",
    "ehrhart.inner_pruned_count", "ehrhart.cumulative_pruned_count",
    "ehrhart.pruned_reciprocity_check", "ehrhart.normal_fan_of",
    "generators.random_hypergraph", "generators.random_hypergraphic_setfn",
    "generators.random_rational_box", "generators.random_rational_simplex",
)

SELF_TIME = {
    "setfn.submodular_s": ("setfn.SetFn.is_submodular",),
    "permutahedron.vertices_s": ("permutahedron.vertices",),
    "permutahedron.face_lattice_s": ("permutahedron.GPerm.face_lattice",
                                     "permutahedron.GPerm.count_k_faces"),
    "permutahedron.chi_s": ("permutahedron.GPerm.chi_count",
                            "permutahedron.GPerm.chi_polynomial"),
    "permutahedron.reciprocity_rhs_s": ("permutahedron.GPerm.reciprocity_rhs",),
    "rational.affine_rank_s": ("rational.affine_rank",),
    "polynomial.interpolate_s": ("polynomial.interpolate", "polynomial.interpolate_quasipoly"),
    "hypergraph.chromatic_s": ("hypergraph.chromatic_count", "hypergraph.chromatic_polynomial"),
    "hypergraph.compatible_pairs_s": ("hypergraph.compatible_pairs_count",),
    "hypergraph.headings_s": ("hypergraph.acyclic_headings", "hypergraph.vertices_via_headings"),
    "ehrhart.count_lattice_s": ("ehrhart.count_lattice",),
    "ehrhart.pruned_s": ("ehrhart.inner_pruned_count", "ehrhart.cumulative_pruned_count"),
    "ehrhart.normal_fan_s": ("ehrhart.normal_fan_of",),
    "generators.s": ("generators.random_hypergraph", "generators.random_hypergraphic_setfn",
                     "generators.random_rational_box", "generators.random_rational_simplex"),
}

# Functions whose repeated calls with equal arguments inside one request are
# counted as duplicate work (`trace.repeat_calls`).
REPEATS = ("permutahedron.vertices", "hypergraph.chromatic_count",
           "hypergraph.chromatic_polynomial", "hypergraph.compatible_pairs_count",
           "hypergraph.acyclic_headings", "ehrhart.count_lattice", "ehrhart.ehrhart_quasipoly",
           "ehrhart.inner_pruned_count", "ehrhart.cumulative_pruned_count")

REQUIRED = {
    "gperm": ("permutahedron.vertices", "setfn.SetFn.is_submodular", "rational.affine_rank",
              "polynomial.interpolate", "permutahedron.GPerm.face_lattice",
              "permutahedron.GPerm.count_k_faces", "permutahedron.GPerm.chi_count",
              "permutahedron.GPerm.chi_polynomial", "permutahedron.GPerm.reciprocity_rhs"),
    "dilation": ("ehrhart.count_lattice", "ehrhart.ehrhart_quasipoly",
                 "ehrhart.em_reciprocity_check", "ehrhart.inner_pruned_count",
                 "ehrhart.cumulative_pruned_count", "ehrhart.pruned_reciprocity_check",
                 "ehrhart.normal_fan_of", "polynomial.interpolate_quasipoly",
                 "polynomial.interpolate", "permutahedron.vertices"),
    "hypergraph": ("hypergraph.chromatic_count", "hypergraph.chromatic_polynomial",
                   "hypergraph.compatible_pairs_count", "hypergraph.acyclic_headings",
                   "hypergraph.vertices_via_headings", "hypergraph.hypergraphic_setfn",
                   "permutahedron.vertices", "permutahedron.GPerm.chi_count",
                   "permutahedron.GPerm.reciprocity_rhs", "permutahedron.GPerm.count_k_faces",
                   "rational.affine_rank", "polynomial.interpolate"),
}
REQUIRED["verify"] = tuple(sorted(set(TRACED) - {"permutahedron.GPerm.face_lattice"}))


class Tracer:
    def __init__(self):
        # [id, parent, request, name, start, end, tracer seconds inside]
        self.spans: list[list] = []
        self.requests: list[list] = []  # [label, start, end, tracer seconds inside]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.active = False
        self.counts: Counter = Counter()
        self.repeats: Counter = Counter()  # (request label, name) -> repeated calls
        self._seen: set = set()
        self._directions: set = set()
        self._lattices: dict = {}
        self._probe_s = 0.0  # face counts taken after each request
        self._call_s = 0.0   # untimed cost of one wrapped call, from calibrate()

    # --- patching -----------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"gpcount.{name}") for name in MODULES}
        bindings = [m for name, m in sys.modules.items()
                    if name == "gpcount" or name.startswith("gpcount.")]
        for target in TRACED:
            parts = target.split(".")
            owner = mods[parts[0]]
            if len(parts) == 3:
                owner = getattr(owner, parts[1], None)
            attr = parts[-1]
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                raise TraceError(f"gpcount.{target} not found")
            if isinstance(raw, functools.cached_property):
                self._patches.append((raw, "func", raw.func))
                raw.func = self._wrap(target, raw.func)
            elif isinstance(owner, type):
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(target, raw))
            else:
                wrapper = self._wrap(target, raw)
                for m in bindings:
                    if m.__dict__.get(attr) is raw:
                        self._patches.append((m, attr, raw))
                        setattr(m, attr, wrapper)

    def calibrate(self, calls: int = 5000) -> None:
        """Measure what a wrapper adds to a call beyond the bookkeeping it
        times itself (the call and the clock reads around the span)."""
        def noop():
            return None
        wrapped = self._wrap("calibration", noop)
        self.begin("calibration")
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        traced = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            noop()
        plain = perf_counter() - start
        self._call_s = max(0.0, (traced - plain - self.requests[-1][3]) / calls)
        self.active = False
        self.spans.clear()
        self.requests.clear()

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)
        repeat = name in REPEATS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = perf_counter()
            parent = tracer._stack[-1] if tracer._stack else -1
            if name == "polynomial.interpolate_quasipoly":
                args = (tracer._counted(args[0]),) + args[1:]
            if repeat:
                tracer._note_repeat(name, args, kwargs)
            rec = [len(tracer.spans), parent, len(tracer.requests) - 1, name, 0.0, 0.0, 0.0]
            tracer.spans.append(rec)
            tracer._stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            # the tracer's own time around this call belongs to no layer
            spent = rec[4] - entered + perf_counter() - rec[5]
            if parent >= 0:
                tracer.spans[parent][6] += spent
            else:
                tracer.requests[-1][3] += spent
            return result
        return wrapper

    def _counted(self, count):
        def wrapped(t):
            self.counts["polynomial.count_evals"] += 1
            return count(t)
        return wrapped

    def _note_repeat(self, name, args, kwargs) -> None:
        try:
            key = (name, tuple(id(a) if not _hashable(a) else a for a in args),
                   tuple(sorted(kwargs.items())))
            hash(key)
        except TypeError:
            return
        if key in self._seen:
            self.repeats[(self.requests[-1][0], name)] += 1
        else:
            self._seen.add(key)

    # --- requests -------------------------------------------------------------

    def begin(self, label: str) -> None:
        self.requests.append([label, perf_counter(), 0.0, 0.0])
        self._seen.clear()
        self._directions.clear()
        self._lattices.clear()
        self.active = True

    def end(self) -> None:
        self.requests[-1][2] = perf_counter()
        self.active = False
        # outside the request: face counts of the lattices this request built
        for P in self._lattices.values():
            self.counts["permutahedron.faces"] += len(P.face_lattice())
            self.counts["permutahedron.compositions"] += fubini(P.d)
        self._probe_s += perf_counter() - self.requests[-1][2]

    # --- results ----------------------------------------------------------------

    def fired(self) -> Counter:
        return Counter(rec[3] for rec in self.spans)

    def _self_s(self) -> list[float]:
        """Self time per span, indexed by span id."""
        child = [0.0] * len(self.spans)
        for _id, parent, _req, _name, start, end, _lost in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[sid] - lost
                for sid, _p, _r, _n, start, end, lost in self.spans]

    def self_times(self) -> dict:
        out = defaultdict(float)
        for rec, own in zip(self.spans, self._self_s()):
            out[rec[3]] += own
        return out

    def metrics(self) -> dict:
        self_s = self.self_times()
        out = {metric: sum(self_s.get(n, 0.0) for n in names)
               for metric, names in SELF_TIME.items()}
        top = defaultdict(float)
        for _id, parent, req, _name, start, end, _lost in self.spans:
            if parent < 0:
                top[req] += end - start
        out["cli.self_s"] = sum(end - start - top[i] - lost
                                for i, (_label, start, end, lost) in enumerate(self.requests))
        fired = self.fired()
        c = self.counts
        out.update({
            "setfn.greedy_vertices": c["setfn.greedy_vertices"],
            "permutahedron.vertex_count": c["permutahedron.vertex_count"],
            "permutahedron.faces": c["permutahedron.faces"],
            "permutahedron.compositions": c["permutahedron.compositions"],
            "permutahedron.directions": c["permutahedron.directions"],
            "rational.affine_rank_calls": fired["rational.affine_rank"],
            "polynomial.interpolate_calls": (fired["polynomial.interpolate"]
                                             + fired["polynomial.interpolate_quasipoly"]),
            "polynomial.count_evals": c["polynomial.count_evals"],
            "hypergraph.colorings": c["hypergraph.colorings"],
            "hypergraph.headings": c["hypergraph.headings"],
            "hypergraph.acyclic_yield": _ratio(c["hypergraph.acyclic"], c["hypergraph.headings"]),
            "ehrhart.box_points": c["ehrhart.box_points"],
            "ehrhart.points": c["ehrhart.points"],
            "ehrhart.scan_yield": _ratio(c["ehrhart.points"], c["ehrhart.box_points"]),
            "ehrhart.cone_row_tests": c["ehrhart.cone_row_tests"],
            "trace.repeat_calls": sum(self.repeats.values()),
            "trace.overhead_s": self.overhead_s(),
        })
        return out

    def overhead_s(self) -> float:
        """What tracing added to the pass: the bookkeeping timed around each
        traced call, the calibrated cost of the calls themselves, and the
        face counts taken after each request."""
        bookkeeping = (sum(rec[6] for rec in self.spans)
                       + sum(req[3] for req in self.requests))
        return bookkeeping + len(self.spans) * self._call_s + self._probe_s

    def summary(self) -> dict:
        """Per request kind: calls and self seconds per span, and repeats."""
        kinds: dict = {}
        for rec, own in zip(self.spans, self._self_s()):
            entry = kinds.setdefault(self.requests[rec[2]][0], {}).setdefault(
                rec[3], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        repeats: dict = {}
        for (label, name), n in sorted(self.repeats.items()):
            repeats.setdefault(label, {})[name] = n
        return {"spans": len(self.spans), "by_request": kinds, "repeat_calls": repeats}


def _hashable(a) -> bool:
    try:
        hash(a)
    except TypeError:
        return False
    return True


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# --- computed counts, from arguments and results ------------------------------

def _vertices(tr, args, result):
    tr.counts["setfn.greedy_vertices"] += factorial(args[0].d)
    tr.counts["permutahedron.vertex_count"] += len(result)


def _directions(tr, args, _result):
    P, m = args[0], args[2]
    if (id(P), m) not in tr._directions:
        tr._directions.add((id(P), m))
        tr.counts["permutahedron.directions"] += m ** P.d


def _lattice(tr, args, _result):
    tr._lattices[id(args[0])] = args[0]


def _colorings(tr, args, _result):
    tr.counts["hypergraph.colorings"] += args[1] ** args[0].d


def _headings(tr, args, result):
    tr.counts["hypergraph.headings"] += args[0].heading_space
    tr.counts["hypergraph.acyclic"] += len(result)


def _count_lattice(tr, args, result):
    tr.counts["ehrhart.box_points"] += _box_points(args[0], args[1])
    tr.counts["ehrhart.points"] += result


def _pruned(tr, args, result):
    poly, fan, t = args[0], args[1], args[2]
    box = _box_points(poly, t)
    tr.counts["ehrhart.box_points"] += box
    tr.counts["ehrhart.points"] += result
    tr.counts["ehrhart.cone_row_tests"] += box * sum(len(c.rows) for c in fan.cones)


HOOKS = {
    "permutahedron.vertices": _vertices,
    "permutahedron.GPerm.chi_count": _directions,
    "permutahedron.GPerm.reciprocity_rhs": _directions,
    "permutahedron.GPerm.face_lattice": _lattice,
    "permutahedron.GPerm.count_k_faces": _lattice,
    "hypergraph.chromatic_count": _colorings,
    "hypergraph.compatible_pairs_count": _colorings,
    "hypergraph.acyclic_headings": _headings,
    "ehrhart.count_lattice": _count_lattice,
    "ehrhart.inner_pruned_count": _pruned,
    "ehrhart.cumulative_pruned_count": _pruned,
}


def unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "ratio" if metric.endswith("_yield") else "count"


def check_required(workload: str, fired: Counter) -> None:
    missing = [n for n in REQUIRED[workload] if not fired[n]]
    if missing:
        raise TraceError(f"{workload}: traced spans never fired: {', '.join(missing)}")
