"""Command-line front end.

Exit codes: 0 success, 1 invalid input or out of memory, 2 infeasible /
unreachable / failed verification, 3 internal error (a broken invariant: a
bug, not bad input).
Set REC_LOG=debug for trace logging of greedy scans and matching repairs.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
import time
from contextlib import contextmanager

from .errors import FeasibilityError, InputError, InvariantError, MatchingError, StateCapExceeded
from .graphs import RootedTree
from .generators import gen_bench_interval_instance, gen_instance, heavy_path_instance
from .instances import Instance, emit_instance, emit_moves, parse_instance, parse_moves
from .interval_reconfig import reconf_interval
from .matching import fast_match_intervals, min_cost_matching
from .moves import MoveSequence
from .oracle import (
    DEFAULT_STATE_CAP,
    dominating_predicate,
    independent_set_predicate,
    reconfig_component,
    reconfig_distance_bfs,
    sequence_failure,
)
from .tree_reconfig import reconf_tree_dominating

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


@contextmanager
def _naming_instance(path: str):
    """Append the first 12 hex digits of the instance file's SHA-256 to an
    internal error raised inside, so that a report names its input."""
    try:
        yield
    except (InvariantError, MatchingError) as exc:
        try:
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()[:12]
        except OSError:
            raise exc from None
        raise type(exc)(f"{exc} (instance sha256 {digest})") from exc


def _solve_instance(inst: Instance, root: int | None) -> MoveSequence | None:
    if inst.kind == "tree":
        tree = RootedTree(inst.graph, 0 if root is None else root)
        return reconf_tree_dominating(tree, inst.d_s, inst.d_t)
    if inst.kind != "intervals":
        raise InputError("solve supports tree and intervals instances; use 'oracle' for graphs")
    if root is not None:
        raise InputError("--root applies only to tree instances")
    assert inst.rep is not None
    return reconf_interval(inst.rep, inst.d_s, inst.d_t)


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    with _naming_instance(args.file):
        seq = _solve_instance(inst, args.root)
    if seq is None:
        print("unreachable")
        return EXIT_INFEASIBLE
    sys.stdout.write(emit_moves(seq.moves, seq.total_length))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    _, triples = parse_moves(_read(args.moves))
    seq = MoveSequence._trusted(tuple(triples))  # parse_moves checked u != v and c >= 1 on each line
    pred = dominating_predicate(inst.graph)
    with _naming_instance(args.file):
        failure = sequence_failure(inst.graph, pred, inst.d_s, inst.d_t, seq, args.optimal)
    if failure is not None:
        print(failure)
        return EXIT_INFEASIBLE
    print(f"valid{' optimal' if args.optimal else ''} ({seq.total_length} moves)")
    return EXIT_OK


def _config_label(key: tuple[tuple[int, int], ...]) -> str:
    return ",".join(str(v) for v, c in key for _ in range(c))


def _emit_dot(inst: Instance, pred, cap: int) -> None:
    """DOT drawing of the start configuration's whole component, within ``cap``."""
    states, slides = reconfig_component(inst.graph, pred, inst.d_s, inst.d_t, cap)
    start, goal = inst.d_s.key(), inst.d_t.key()
    print("graph reconfiguration {")
    for key in sorted(states):
        label = _config_label(key)
        shape = ", shape=box" if key == start else ", shape=doublecircle" if key == goal else ""
        print(f'  "{label}" [label="{label}"{shape}];')
    for a, b in sorted(slides):
        print(f'  "{_config_label(a)}" -- "{_config_label(b)}";')
    print("}")


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    make_pred = dominating_predicate if args.pred == "dominating" else independent_set_predicate
    pred = make_pred(inst.graph)
    try:
        if args.dot:
            _emit_dot(inst, pred, args.cap)
            return EXIT_OK
        d = reconfig_distance_bfs(inst.graph, pred, inst.d_s, inst.d_t, cap=args.cap)
    except StateCapExceeded:
        print(f"undecided: more than {args.cap} configurations visited")
        return EXIT_INFEASIBLE
    if d is None:
        print("unreachable")
        return EXIT_INFEASIBLE
    print(d)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = gen_instance(args.kind, args.n, args.k, args.seed)
    sys.stdout.write(emit_instance(inst))
    return EXIT_OK


def _cmd_match(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    if args.fast:
        if inst.kind != "intervals":
            raise InputError("--fast requires an intervals instance")
        assert inst.rep is not None
        m, cost = fast_match_intervals(inst.rep, inst.d_s, inst.d_t)
    else:
        m, cost = min_cost_matching(inst.graph, inst.d_s, inst.d_t)
    if cost is None or m is None:
        print("unreachable")
        return EXIT_INFEASIBLE
    print(f"cost {cost}")
    for (u, v), c in m.items():
        print(f"{u} {v} {c}")
    return EXIT_OK


def _bench_point(kind: str, n: int, seed: int) -> tuple[int, float]:
    """Total moves and wall ms of one ladder point.

    ``interval`` times the interval solver on
    ``gen_bench_interval_instance(n, seed)``.  The tree kinds emit one
    heavy-path pile (quadratically many unit moves, linearly many triples),
    parse, root, solve and verify it as ``tokenslide solve`` and ``verify``
    do, and time the phase the kind names: ``parse`` (``parse_instance``
    and ``RootedTree``), ``tree`` (the solver) or ``verify`` (the replay).
    """
    if kind == "interval":
        inst = gen_bench_interval_instance(n, seed)
        assert inst.rep is not None
        t0 = time.perf_counter()
        seq = reconf_interval(inst.rep, inst.d_s, inst.d_t)
        return (seq.total_length if seq is not None else -1), (time.perf_counter() - t0) * 1000.0
    graph, d_s, d_t = heavy_path_instance(n, max(1, n // 10))
    text = emit_instance(Instance("tree", graph, None, d_s, d_t))
    t0 = time.perf_counter()
    inst = parse_instance(text)
    tree = RootedTree(inst.graph, 0)
    t1 = time.perf_counter()
    seq = reconf_tree_dominating(tree, inst.d_s, inst.d_t)
    t2 = time.perf_counter()
    pred = dominating_predicate(inst.graph)
    failure = sequence_failure(inst.graph, pred, inst.d_s, inst.d_t, seq, optimal=False)
    t3 = time.perf_counter()
    if failure is not None:
        raise InvariantError(f"the tree solver's sequence does not verify: {failure}")
    elapsed = {"parse": t1 - t0, "tree": t2 - t1, "verify": t3 - t2}[kind]
    return seq.total_length, elapsed * 1000.0


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = []
    for part in args.sizes.split(","):
        part = part.strip()
        if part:
            try:
                n = int(part)
            except ValueError:
                n = 0
            if n < 1:
                raise InputError(f"bad size {part!r}")
            sizes.append(n)
    if not sizes:
        raise InputError("no sizes given")
    print("n,total_moves,wall_ms")
    for n in sizes:
        total, ms = _bench_point(args.kind, n, args.seed + n)
        print(f"{n},{total},{ms:.2f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenslide",
        description="Shortest token-sliding reconfiguration of dominating sets "
        "on trees and interval graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a shortest reconfiguration sequence")
    p.add_argument("file")
    p.add_argument("--root", type=int, help="tree root, tree files only (default 0)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a move sequence against an instance")
    p.add_argument("file")
    p.add_argument("moves")
    p.add_argument(
        "--optimal", action="store_true", help="also certify optimality by the matching bound"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exact reconfiguration distance by exhaustive BFS")
    p.add_argument("file")
    p.add_argument("--pred", choices=("dominating", "independent"), default="dominating")
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP, help="configuration budget (>= 1)")
    p.add_argument("--dot", action="store_true", help="emit the reachable component as DOT")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a random feasible instance")
    p.add_argument("--kind", choices=("tree", "interval"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("match", help="minimum-cost matching between the token sets")
    p.add_argument("file")
    p.add_argument("--fast", action="store_true", help="greedy interval matcher")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("bench", help="CSV timing ladder")
    p.add_argument(
        "--kind",
        choices=("tree", "interval", "verify", "parse"),
        required=True,
        help="time the tree solver, the interval solver, verify_sequence on the tree ladder's "
        "parsed instances, or parse_instance and RootedTree on their emitted text",
    )
    p.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("REC_LOG", "").lower() == "debug":
        logging.basicConfig(level=logging.DEBUG, format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InvariantError, MatchingError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:
        detail = str(exc).partition("\n")[0]
        print(f"error: out of memory ({detail})" if detail else "error: out of memory", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
