"""The program names the benchmark in ``perfbench/`` reaches by attribute.

The traced run (``perfbench/run.py --trace 1``) wraps module attributes
listed by ``perfbench/tracing.py::patch_points``, the repair check wraps
``interval_reconfig.fix_matching`` with a fixed signature, and the gadget
search hands ``find_greedy_move`` a list of BFS rows.  Every other name
the benchmark reaches, as ``ts.<module>.<name>`` on the imported package or
by ``from tokenslide... import``, is resolved here too.  A refactor that
drops or renames one of those names fails here rather than only in a
benchmark run.  The seed-11 set-up of each workload is pinned here too, by
the input hash the benchmark prints, so a change that moves an input byte
fails here rather than only in a comparison of two benchmark runs.
"""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tokenslide as ts

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _perfbench_names():
    """(where, module, dotted name) for every attribute chain read off the
    name ``ts`` and every name a ``from tokenslide... import`` takes, in
    ``perfbench/*.py``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs = []
                while isinstance(node, ast.Attribute):
                    attrs.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id == "ts":
                    yield where, "tokenslide", ".".join(reversed(attrs))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tokenslide":
                for alias in node.names:
                    yield where, node.module, alias.name


def test_every_name_perfbench_reaches_resolves():
    names = list(_perfbench_names())
    found = {(module, name) for _, module, name in names}
    # the walk sees both ways in: chains on ts and imports inside functions
    assert ("tokenslide", "instances.parse_moves") in found
    assert ("tokenslide.generators", "heavy_path_instance") in found
    for where, module, name in names:
        owner = importlib.import_module(module)
        for attr in name.split("."):
            assert hasattr(owner, attr), f"{where}: {module}.{name} does not resolve"
            owner = getattr(owner, attr)


# sha256 of "<file> <sha256 of file>\n" over the set-up's files in manifest
# order, as ``perfbench/run.py`` prints it on its ``# inputs`` line
SEED_11_INPUTS = {
    "tree_pile": "dca9d4a35c509952284f195b3187e9e9528bd323da237fa37cfb5208c676718e",
    "verify_replay": "0868266d1e2dd32648c7cd3ed7e533c1f1a17088e0628f549e05b16867bcb522",
    "interval_sparse": "f0fb316016a30b5f578eda2543e9f96f1e7e470950cab0e899726824859e9431",
    "interval_repair": "74d5e65e0eb18f23ec1fb1f986fd514fa696e472d794d1a917b8800bd88e1d1e",
}


@pytest.mark.parametrize("workload", sorted(SEED_11_INPUTS))
def test_seed_11_set_up_writes_the_pinned_inputs(workload, tmp_path):
    """One set-up of each workload at seed 11, run as the benchmark runs it,
    writes the same instance files as before: the generators, the emitter
    and every builder they use leave these bytes alone."""
    subprocess.run(
        [sys.executable, "perfbench/workloads.py", "--workload", workload, "--seed", "11", "--out", str(tmp_path)],
        cwd=PERFBENCH.parent,
        check=True,
    )
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    files = [e["file"] for e in manifest["instances"] + manifest["gadgets"]]
    lines = "".join(f"{f} {hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()}\n" for f in files)
    assert hashlib.sha256(lines.encode()).hexdigest() == SEED_11_INPUTS[workload]
