"""Write the named input documents and the expected content of their reports.

    python3 perfbench/make_expected.py

Run from the repository root.  Writes perfbench/docs/*.json from `gen` and
perfbench/expected.json from the program's reports on every named request
(full and --tiny sizes).  A report is recorded only if it also passes the
independent oracle check, so expected.json never holds a value that the
closed forms in `oracles` contradict.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402


def write_docs() -> None:
    docs = os.path.join(HERE, "docs")
    os.makedirs(docs, exist_ok=True)
    named = {f"pi_{d}": gen.setfn_doc(d, gen.standard_perm_values(d)) for d in (3, 4, 5, 6)}
    for d in (3, 4):
        named[f"cube_{d}"] = gen.box_doc([(0, 1)] * d)
    named["simplex_4"] = gen.simplex_doc(4, 1)
    import workloads
    for name, meta in workloads.NAMED_RATIONAL.items():
        if meta["kind"] == "box":
            named[name] = gen.box_doc([(Fraction(lo), Fraction(hi)) for lo, hi in meta["bounds"]])
        else:
            named[name] = gen.simplex_doc(meta["d"], Fraction(meta["scale"]))
    for name, doc in named.items():
        with open(os.path.join(docs, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def main() -> int:
    path = os.path.join(HERE, "expected.json")
    if not os.path.exists(path) or not os.path.getsize(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{}\n")  # workloads.expected() reads it
    write_docs()
    import one_pass
    import workloads
    _src, cli = one_pass.load_program(os.getcwd())
    workdir = os.path.join(HERE, "_work", "expected")
    os.makedirs(workdir, exist_ok=True)
    expected, status = {}, 0
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        for name, build in sorted(workloads.WORKLOADS.items()):
            for tiny in (False, True):
                p = build(random.Random(0), tiny)
                for doc_name, doc in p.docs.items():
                    with open(doc_name, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
                for req in p.requests:
                    if not req.named:
                        continue
                    _s, rc, out, err = one_pass.send(cli, req.argv)
                    payload = json.loads(out) if rc == 0 else None
                    if payload is not None:
                        workloads.expected()[req.label] = workloads.content(payload)
                    errors, _n = one_pass.judge(req, rc, out, err)
                    if errors:
                        print(f"{req.label}: {errors}", file=sys.stderr)
                        status = 1
                    else:
                        expected[req.label] = workloads.content(payload)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(expected.items())]
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(expected)} expected reports written")
    return status


if __name__ == "__main__":
    sys.exit(main())
