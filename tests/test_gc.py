"""No CLI command leaves cyclic garbage: every object a request makes is
freed by reference counting when the request returns.  A reference cycle
keeps its objects, and whatever they hold, until the cyclic collector runs,
so a process's memory would follow when a collection falls due rather than
what a request needs.  Each command is sent one small request with the
collector off, after a collection; a collection afterwards must then find
nothing."""

import contextlib
import gc
import io

import pytest

from gpcount import cli
from test_golden import GOLDEN

PI_3 = str(GOLDEN / "pi_3.json")
HG_5 = str(GOLDEN / "hg_5.json")
REQUESTS = {
    "ehrhart": ["ehrhart", "--poly", str(GOLDEN / "triangle_q2.json"),
                "--degree", "2", "--period", "2", "--t-max", "4"],
    "pruned-fan": ["pruned", "--poly", str(GOLDEN / "rect_q2.json"),
                   "--fan", str(GOLDEN / "fan_diag_q.json"),
                   "--degree", "2", "--period", "2", "--t-max", "4"],
    "pruned-setfn": ["pruned", "--poly", str(GOLDEN / "cube_3.json"), "--setfn", PI_3,
                     "--degree", "3", "--period", "1", "--t-max", "2"],
    "verify-all": ["verify-all", "--seed", "3", "--trials", "1"],
    "chi": ["chi", "--setfn", PI_3, "--k", "1"],
    "faces": ["faces", "--setfn", PI_3],
    "hg-chromatic": ["hg-chromatic", "--hg", HG_5, "--m", "2"],
    "hg-headings": ["hg-headings", "--hg", HG_5],
    "hg-reciprocity": ["hg-reciprocity", "--hg", HG_5, "--m-max", "2"],
}


def test_every_command_is_sent():
    assert {argv[0] for argv in REQUESTS.values()} == set(cli.COMMANDS)


@pytest.mark.parametrize("request_name", REQUESTS)
def test_a_request_leaves_no_cyclic_garbage(request_name):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.run(REQUESTS[request_name]) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
