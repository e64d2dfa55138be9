"""The program names the benchmark in ``perfbench/`` reaches by attribute.

The traced run (``perfbench/run.py --trace 1``) wraps module attributes
listed by ``perfbench/tracing.py::patch_points``, the repair check wraps
``interval_reconfig.fix_matching`` with a fixed signature, and the gadget
search hands ``find_greedy_move`` a list of BFS rows.  A refactor that
drops one of those names fails here rather than only in a traced run.
"""

import importlib.util
import inspect
from pathlib import Path

import tokenslide as ts

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    points = _load_tracing().patch_points(ts)
    assert points
    for name, owner, attr in points:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr}"


def test_fix_matching_keeps_its_dist_keyword():
    params = inspect.signature(ts.interval_reconfig.fix_matching).parameters
    assert list(params) == ["rep", "g", "d_s", "d_t", "m", "_dist"]
    assert params["_dist"].default is None


def test_find_greedy_move_keeps_its_dist_parameter():
    params = list(inspect.signature(ts.interval_reconfig.find_greedy_move).parameters.values())
    assert params[4].name == "dist"
    assert params[4].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert params[4].default is None
