"""One set-up measurement in a fresh interpreter; `run.py` starts it.

    python3 -I perfbench/setup_probe.py SRC KIND=PATH [KIND=PATH ...]

Times importing gpcount from SRC, parsing each document and building the
program's objects for it, then prints the seconds on stdout.  KIND is
`gperm` (GPerm, vertices and the submodularity test included), `fan`
(normal_fan_of a GPerm, a FullDimFan), `poly` (HPolytope) or `hg`
(Hypergraph).  Then times `calib.work()` twice and prints its mean seconds
on the same line, so that `run.py` can give the set-up time in reference
seconds.
"""

import json
import os
import sys
import time


def main(argv) -> None:
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    from gpcount.ehrhart import hpolytope_from_json, normal_fan_of
    from gpcount.hypergraph import hypergraph_from_json
    from gpcount.permutahedron import GPerm
    from gpcount.setfn import setfn_from_json

    build = {
        "gperm": lambda doc: GPerm(setfn_from_json(doc)),
        "fan": lambda doc: normal_fan_of(GPerm(setfn_from_json(doc))),
        "poly": hpolytope_from_json,
        "hg": hypergraph_from_json,
    }
    built = []
    for item in argv[1:]:
        kind, path = item.split("=", 1)
        with open(path, encoding="utf-8") as fh:
            built.append(build[kind](json.load(fh)))
    seconds = time.perf_counter() - start
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calib
    calibration = (calib.measure() + calib.measure()) / 2
    print(f"{seconds:.9f} {calibration:.9f}")


if __name__ == "__main__":
    main(sys.argv[1:])
