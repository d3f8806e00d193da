"""Command-line front end: burning, path forests, sequences, tables, spiders.

Exit codes: 0 success, 1 domain error (message names the violated condition),
2 argument parse error, 3 resource error (the input needs more memory or a
deeper recursion than the interpreter has).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, List, Optional, Tuple

from . import admissible as adm
from . import burning, extremal, spider
from .admissible import InducedSpec
from .topology import (
    Topology,
    TopologyError,
    make_chain_topology,
    make_star_topology,
    make_tshape_topology,
    parse_topology,
)
from .tree import Tree, TreeError, make_path, make_spider, parse_tree


class DomainError(Exception):
    pass


# The largest tree a command builds, checked on its order before anything is
# built: the tree `adm induce` prints, one edge a line; a `path:N` or
# `spider:a,b,...` tree of the `burn` commands; and the extremal spider of
# `spider balanced` and `spider witness`, of order n(m-1) + 1 + (m-1)^2.
# `adm induce` at 10**6 vertices takes about 2.5 s and 250 MB (Python 3.11,
# one core of a shared 2-core x86 machine).
MAX_INDUCED_ORDER = 10**6


def _check_order(what: str, order: int, command: str) -> None:
    if order > MAX_INDUCED_ORDER:
        raise DomainError(
            f"{what} has {order} vertices, more than the {MAX_INDUCED_ORDER} {command}"
        )


def _load_tree(spec: str) -> Tree:
    if spec.startswith("path:"):
        order = int(spec[5:])
        _check_order("tree", order, "a path: spec builds")
        return make_path(order)
    if spec.startswith("spider:"):
        lengths = [int(x) for x in spec[7:].split(",") if x]
        _check_order("tree", 1 + sum(lengths), "a spider: spec builds")
        return make_spider(lengths)
    if not os.path.exists(spec):
        raise DomainError(f"tree file not found: {spec}")
    with open(spec) as fh:
        return parse_tree(fh.read())


_CHAIN_RE = re.compile(r"^chain(\d{4})$")
_TSHAPE_RE = re.compile(r"^tshape(\d{4})$")
_STAR_RE = re.compile(r"^star(\d+)$")


def _load_topology(spec: str) -> Tuple[Topology, Dict[str, int]]:
    m = _CHAIN_RE.match(spec)
    if m:
        return make_chain_topology(*(int(ch) for ch in m.group(1)))
    m = _TSHAPE_RE.match(spec)
    if m:
        return make_tshape_topology(*(int(ch) for ch in m.group(1)))
    m = _STAR_RE.match(spec)
    if m:
        return make_star_topology(int(m.group(1)))
    if not os.path.exists(spec):
        raise DomainError(f"topology file not found: {spec}")
    with open(spec) as fh:
        return parse_topology(fh.read())


def _load_sequence(spec: str, labels: Dict[str, int]) -> adm.AdmissibleSequence:
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
        if "block" in text:
            return adm.parse_block_lines(text)
        return adm.parse_compact(text.strip(), labels)
    return adm.parse_compact(spec, labels)


def _emit(fields: List[Tuple[str, str]], fmt: str) -> str:
    if fmt == "tsv":
        return "\t".join(f"{k}={v}" for k, v in fields)
    return " ".join(f"{k}={v}" for k, v in fields)


def _emit_tagged(tag: str, fields: List[Tuple[str, str]], fmt: str) -> str:
    return tag + ("\t" if fmt == "tsv" else " ") + _emit(fields, fmt)


def _sources_str(schedule: burning.BurningSchedule) -> str:
    return ",".join(str(v) for v in schedule.sources)


# --- burn -------------------------------------------------------------------


def _cmd_burn_number(args) -> int:
    tree = _load_tree(args.tree)
    b, sched = burning.burning_number(tree)
    print(_emit([("b", str(b)), ("sources", _sources_str(sched))], args.format))
    return 0


def _cmd_burn_check(args) -> int:
    tree = _load_tree(args.tree)
    sources = tuple(int(x) for x in args.seq.split(","))
    flags = burning.verify_schedule(tree, burning.BurningSchedule(sources=sources))
    print(
        _emit(
            [
                ("valid", str(flags.is_burning_sequence).lower()),
                ("covers_all", str(flags.covers_all).lower()),
                ("distance_ok", str(flags.distance_ok).lower()),
                ("pairwise_disjoint", str(flags.pairwise_disjoint).lower()),
                ("leaves_last", str(flags.leaves_last).lower()),
                ("branch_prefix_length", str(flags.branch_prefix_length)),
            ],
            args.format,
        )
    )
    return 0 if flags.is_burning_sequence else 1


def _cmd_burn_burnable(args) -> int:
    tree = _load_tree(args.tree)
    if not burning.is_m_burnable(tree, args.m):
        print(_emit([("burnable", "false"), ("m", str(args.m))], args.format))
        return 1
    _, witness = burning.burning_number(tree)
    fields = [("m", str(len(witness.sources))), ("sources", _sources_str(witness))]
    print(_emit_tagged("burn", fields, args.format))
    return 0


def _cmd_burn_maximal(args) -> int:
    tree = _load_tree(args.tree)
    result = burning.is_maximally_m_burnable(tree, args.m)
    print(_emit([("maximal", str(result).lower()), ("m", str(args.m))], args.format))
    return 0


# --- forest -----------------------------------------------------------------


def _parse_paths(spec: str) -> burning.PathForest:
    if spec.startswith("paths:"):
        spec = spec[6:]
    return burning.PathForest(tuple(int(x) for x in spec.split(",") if x))


def _cmd_forest_burnable(args) -> int:
    forest = _parse_paths(args.paths)
    ok = burning.path_forest_burnable(forest, args.m)
    print(_emit([("burnable", str(ok).lower()), ("m", str(args.m))], args.format))
    return 0 if ok else 1


def _cmd_forest_ln(args) -> int:
    try:
        lo, hi = (int(x) for x in args.m_range.split(".."))
    except ValueError:
        raise DomainError(f"bad m-range {args.m_range!r}; expected A..B")
    if lo > hi:
        raise DomainError(f"empty m-range {args.m_range!r}; expected A..B with A <= B")
    est = burning.ln_estimate(args.n, range(lo, hi + 1))
    for m in range(lo, hi + 1):
        if m in est.vacuous:
            print(_emit([("m", str(m)), ("vacuous", "true")], args.format))
            continue
        fields = [("m", str(m)), ("L", str(est.per_m[m]))]
        cx = est.counterexamples.get(m)
        if cx is not None:
            fields.append(("counterexample", ",".join(str(x) for x in cx)))
        print(_emit(fields, args.format))
    return 0


# --- adm --------------------------------------------------------------------


def _adm_context(args):
    topo, labels = _load_topology(args.topology)
    seq = _load_sequence(args.seq, labels)
    return topo, labels, seq


def _cmd_adm_validate(args) -> int:
    topo, _, seq = _adm_context(args)
    errors = adm.validate(topo, seq)
    if errors:
        for err in errors:
            print(f"invalid: {err}")
        return 1
    print("valid")
    return 0


def _cmd_adm_sig(args) -> int:
    topo, _, seq = _adm_context(args)
    sig = adm.signature(topo, seq)
    items = ",".join(f"{v}:{s}" for v, s in sorted(sig.items()))
    print(_emit([("sig", items), ("maxsig", str(max(sig.values())))], args.format))
    return 0


def _cmd_adm_canon(args) -> int:
    topo, labels, seq = _adm_context(args)
    canon = adm.canonicalize(topo, seq)
    print(
        _emit(
            [
                ("canonical", str(adm.sequences_equal(seq, canon)).lower()),
                ("form", adm.format_compact(canon, labels, topo)),
            ],
            args.format,
        )
    )
    return 0


def _cmd_adm_order(args) -> int:
    topo, _, seq = _adm_context(args)
    if args.m is None:
        raise DomainError("adm order requires -m")
    print(_emit([("order", str(adm.induced_order(topo, seq, args.m)))], args.format))
    return 0


def _cmd_adm_induce(args) -> int:
    topo, _, seq = _adm_context(args)
    if args.m is None:
        raise DomainError("adm induce requires -m")
    # closed form, no path laid out
    _check_order("induced tree", adm.induced_order(topo, seq, args.m), "adm induce prints")
    spec = InducedSpec(topology=topo, sequence=seq, m=args.m)
    plan = adm.induced_plan(spec)
    tree = Tree._built(plan.paths)
    print(_emit([("order", str(tree.order))], args.format))
    print(f"burn m={args.m} sources={','.join(map(str, plan.sources))}")
    for u, v in tree.edges:
        print(f"edge {u} {v}")
    return 0


# --- ext --------------------------------------------------------------------


def _cmd_ext_search(args) -> int:
    topo, labels = _load_topology(args.topology)
    result = extremal.find_extremal(topo, args.m, verify=args.verify)
    fields = [
        ("order", str(result.order)),
        ("seq", adm.format_compact(result.sequence, labels, topo)),
    ]
    if result.burning_number is not None:
        fields.append(("b", str(result.burning_number)))
        fields.append(("maximal", str(result.maximal).lower()))
    print(_emit(fields, args.format))
    return 0


def _parse_grid(spec: str) -> List[Tuple[int, int, int, int]]:
    out = []
    for token in spec.split(";"):
        token = token.strip()
        if not token:
            continue
        parts = tuple(int(x) for x in token.split(","))
        if len(parts) != 4:
            raise DomainError(f"degree tuple {token!r} needs four entries")
        out.append(parts)
    return out


def _cmd_ext_tables(args) -> int:
    if args.emit_table is not None:
        print(extremal.emit_table(args.emit_table))
        return 0
    if not args.degrees_grid or not args.m_grid or not args.shape:
        raise DomainError("ext tables needs --shape, --degrees-grid, and --m-grid")
    degrees = _parse_grid(args.degrees_grid)
    m_grid = [int(x) for x in args.m_grid.split(",")]
    # every input is checked before the first line is printed
    for m in m_grid:
        if m <= 4:
            raise DomainError(f"m must exceed the branch-vertex count 4, got {m}")
    cases = [extremal.FourBranchCase(shape=args.shape, degrees=d) for d in degrees]
    winners = [extremal.four_branch_lookup(case) for case in cases]
    names = (
        extremal.CHAIN_SEQUENCES if args.shape == "chain" else extremal.TSHAPE_SEQUENCES
    )
    report = extremal.verify_tables(degrees, m_grid, args.shape)
    sep = "\t" if args.format == "tsv" else " "
    print(sep.join(["degrees", "m", "winner"] + names))
    for degs, winner in zip(degrees, winners):
        for m in m_grid:
            orders = report.orders[(degs, m)]
            row = [",".join(str(d) for d in degs), str(m), winner]
            print(sep.join(row + [str(orders[name]) for name in names]))
    if not report.ok:
        for line in report.mismatches:
            print(f"mismatch: {line}")
        return 1
    return 0


# --- spider -----------------------------------------------------------------


def _print_profile(prof, sched, m, fmt):
    tag = "spider:" + ",".join(str(l) for l in prof.arm_lengths)
    fields = [
        ("order", str(prof.order)),
        ("diameter", str(prof.diameter)),
        ("b", str(m)),
        ("sources", _sources_str(sched)),
    ]
    print(_emit_tagged(tag, fields, fmt))


def _cmd_spider_witness(args) -> int:
    spider.min_diameter(args.n, args.m)  # its message first for m outside 3..2n-1
    order = spider.extremal_order(args.n, args.m)
    _check_order("extremal spider", order, "spider witness builds")
    prof, sched = spider.min_diameter_witness(args.n, args.m)
    _print_profile(prof, sched, args.m, args.format)
    return 0


def _cmd_spider_balanced(args) -> int:
    order = spider.extremal_order(args.n, args.m)
    _check_order("extremal spider", order, "spider balanced builds")
    prof, sched = spider.balanced_extremal_spider(args.n, args.m)
    _print_profile(prof, sched, args.m, args.format)
    return 0


def _cmd_spider_verify(args) -> int:
    # the walk's size: every leg-length partition of the extremal order,
    # counted once and refused above the cap before it is printed
    total, count = spider._leg_partitions(args.n, args.m)
    print(f"partitions {count}", file=sys.stderr)
    target = spider.min_diameter(args.n, args.m)
    ok = spider._walk_legs(args.n, args.m, total)
    fields = [
        ("min_diameter", str(target)),
        ("confirmed", str(ok).lower()),
    ]
    print(_emit(fields, args.format))
    return 0 if ok else 1


# --- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeburn")
    parser.add_argument("--format", choices=("plain", "tsv"), default="plain")
    sub = parser.add_subparsers(dest="command", required=True)

    burn_p = sub.add_parser("burn")
    burn_sub = burn_p.add_subparsers(dest="action", required=True)
    p = burn_sub.add_parser("number")
    p.add_argument("tree")
    p.set_defaults(func=_cmd_burn_number)
    p = burn_sub.add_parser("check")
    p.add_argument("tree")
    p.add_argument("--seq", required=True)
    p.set_defaults(func=_cmd_burn_check)
    p = burn_sub.add_parser("burnable")
    p.add_argument("tree")
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=_cmd_burn_burnable)
    p = burn_sub.add_parser("maximal")
    p.add_argument("tree")
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=_cmd_burn_maximal)

    forest_p = sub.add_parser("forest")
    forest_sub = forest_p.add_subparsers(dest="action", required=True)
    p = forest_sub.add_parser("burnable")
    p.add_argument("--paths", required=True)
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=_cmd_forest_burnable)
    p = forest_sub.add_parser("ln")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--m-range", required=True)
    p.set_defaults(func=_cmd_forest_ln)

    adm_p = sub.add_parser("adm")
    adm_sub = adm_p.add_subparsers(dest="action", required=True)
    for name, func in (
        ("validate", _cmd_adm_validate),
        ("sig", _cmd_adm_sig),
        ("canon", _cmd_adm_canon),
        ("order", _cmd_adm_order),
        ("induce", _cmd_adm_induce),
    ):
        p = adm_sub.add_parser(name)
        p.add_argument("topology")
        p.add_argument("--seq", required=True)
        p.add_argument("-m", type=int, default=None)
        p.set_defaults(func=func)

    ext_p = sub.add_parser("ext")
    ext_sub = ext_p.add_subparsers(dest="action", required=True)
    p = ext_sub.add_parser("search")
    p.add_argument("topology")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_ext_search)
    p = ext_sub.add_parser("tables")
    p.add_argument("--shape", choices=("chain", "tshape"))
    p.add_argument("--degrees-grid")
    p.add_argument("--m-grid")
    p.add_argument("--emit-table", type=int, choices=range(1, 7))
    p.set_defaults(func=_cmd_ext_tables)

    spider_p = sub.add_parser("spider")
    spider_sub = spider_p.add_subparsers(dest="action", required=True)
    for name, func in (
        ("witness", _cmd_spider_witness),
        ("balanced", _cmd_spider_balanced),
        ("verify-min-diameter", _cmd_spider_verify),
    ):
        p = spider_sub.add_parser(name)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-m", type=int, required=True)
        p.set_defaults(func=func)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainError, TreeError, TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:
        what = "out of memory" if isinstance(exc, MemoryError) else "recursion too deep"
        print(f"error: {what}: the input is too large for this command", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
