"""Command-line surface.

Exit codes: 0 success, 2 parse failure (a restraint that check_fit
refuses for its graph included) or an unusable extremal --results-dir
(refused before any search, with the OS reason), 3 work budget exceeded,
4 theorem violation found by a verify run.  JSON mode emits a single
top-level object with sorted keys, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .engine import (
    coeff_n1, coeff_n2, coeff_n3, count_colourings, dominance_key, restrained_poly, shared_pair_overlap,
)
from . import extremal
from .extremal import THEOREMS, check_conjecture, verify_theorems, write_json
from .graphs import (
    CapError,
    Graph,
    ParseError,
    connected_bipartite_catalog,
    connected_catalog,
    load_graph,
    to_graph6,
)
from .restraints import (
    Restraint,
    RestraintClass,
    check_fit,
    empty_restraint,
    enumerate_k_restraints,
    parse_restraint,
    render_restraint,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_VIOLATION = 4


def _load_restraint(source: str | None, g: Graph) -> Restraint:
    if source is None:
        return empty_restraint(g)
    text = source
    if os.path.isfile(source):
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    r = parse_restraint(text)
    check_fit(g, r)
    return r


def _emit(args, obj: dict, human_lines: list[str]) -> None:
    if args.json:
        write_json(obj, sys.stdout)
    else:
        for line in human_lines:
            print(line)


def cmd_poly(args) -> int:
    g = load_graph(args.graph)
    r = _load_restraint(args.restraint, g)
    p = restrained_poly(g, r)
    m = r.m_value()
    obj = {
        "graph6": to_graph6(g),
        "n": g.n,
        "m": g.m,
        "restraint": render_restraint(r),
        "coeffs": [str(c) for c in p.coeffs],
        "polynomial": str(p),
        "valid_from": m,
    }
    lines = [
        f"graph: {to_graph6(g)} (n={g.n}, m={g.m})",
        f"restraint: {render_restraint(r)}",
        f"polynomial: {p}",
        f"coefficients: {p.vector_str()}",
    ]
    if args.x is not None:
        value = p.evaluate(args.x)
        obj["value_at"] = {"x": args.x, "value": str(value)}
        lines.append(f"value at x={args.x}: {value}")
        if args.x < m:
            note = f"note: polynomial form counts colourings only for x >= {m}; x={args.x} is below that"
            obj["note"] = note
            lines.append(note)
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_count(args) -> int:
    if args.x is None:
        raise ParseError("count requires --x")
    g = load_graph(args.graph)
    r = _load_restraint(args.restraint, g)
    value = count_colourings(g, r, args.x)
    obj = {
        "graph6": to_graph6(g),
        "restraint": render_restraint(r),
        "x": args.x,
        "count": str(value),
    }
    _emit(args, obj, [f"colourings with x={args.x}: {value}"])
    return EXIT_OK


def cmd_coeffs(args) -> int:
    g = load_graph(args.graph)
    r = _load_restraint(args.restraint, g)
    obj = {"graph6": to_graph6(g), "restraint": render_restraint(r)}
    lines = []
    if g.n >= 1:
        obj["a_n_1"] = coeff_n1(g, r)
        lines.append(f"a[n-1] = {obj['a_n_1']}")
    if g.n >= 2:
        obj["a_n_2"] = coeff_n2(g, r)
        lines.append(f"a[n-2] = {obj['a_n_2']}")
    if g.n >= 3:
        breakdown = coeff_n3(g, r)
        obj["a_n_3"] = breakdown.a_n_3
        obj["terms"] = {name: str(val) for name, val in breakdown.terms.items()}
        obj["pair_overlap"] = shared_pair_overlap(g, r)
        lines.append(f"a[n-3] = {breakdown.a_n_3}")
        term_text = " ".join(f"{name}={val}" for name, val in breakdown.terms.items())
        lines.append(f"terms: {term_text}")
        lines.append(f"pair overlap: {obj['pair_overlap']}")
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_classes(args) -> int:
    g = load_graph(args.graph)
    key = dominance_key(g, args.k)  # a class is proper exactly when its I2, -key(canon)[0], is 0
    entries = [
        {"restraint": RestraintClass(canon, g.n).class_id(), "proper": not key(canon)[0]}
        for canon in enumerate_k_restraints(g, args.k)
    ]
    obj = {"graph6": to_graph6(g), "k": args.k, "count": len(entries), "classes": entries}
    lines = [f"{len(entries)} classes on {to_graph6(g)} (k={args.k})"]
    for i, entry in enumerate(entries, 1):
        tag = " proper" if entry["proper"] else ""
        lines.append(f"{i}. {entry['restraint']}{tag}")
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_extremal(args) -> int:
    g = load_graph(args.graph)
    if args.results_dir:
        report = extremal.load_or_compute_extremal(g, args.k, args.results_dir)
    else:
        report = extremal.find_extremal(g, args.k)
    obj = report.to_record()
    lines = [
        f"graph: {report.graph_id} (k={args.k}), {report.class_count} classes",
        f"max: {', '.join(obj['max_classes'])}",
        f"max polynomial: {report.max_poly}",
        f"min: {', '.join(obj['min_classes'])}",
        f"min polynomial: {report.min_poly}",
    ]
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    """One theorem, or with --theorem all every theorem in THEOREMS, checked
    graph by graph so that each graph is searched once."""
    if args.graph:
        graphs = [load_graph(args.graph)]
    else:
        catalog = connected_bipartite_catalog if args.theorem == "bipartite" else connected_catalog
        graphs = catalog(args.n_max)
    names = list(THEOREMS) if args.theorem == "all" else [args.theorem]
    reports = verify_theorems(names, graphs, args.k)
    if args.theorem == "all":
        results = {name: {"records": r.records, "violations": len(r.violations)} for name, r in reports.items()}
        obj = {"theorem": "all", "k": args.k, "theorems": results}
    else:
        obj = {"theorem": args.theorem, "k": args.k, "records": reports[args.theorem].records}
    violations = obj["violations"] = sum(len(r.violations) for r in reports.values())
    lines = []
    for report in reports.values():
        lines.append(report.summary())
        lines.extend(f"violation: {json.dumps(rec, sort_keys=True)}" for rec in report.violations)
    _emit(args, obj, lines)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_conjecture(args) -> int:
    rec = check_conjecture(args.n)
    lines = [
        f"odd cycle n={rec['n']}: {rec['class_count']} classes, winners: {', '.join(rec['winners'])}",
    ]
    if rec["pattern_total"]:
        lines.append(f"conjectured restraint: {rec['conjectured']}")
        lines.append(f"winner matches conjectured class: {rec['matches']}")
    else:
        lines.append(
            "conjectured pattern leaves positions "
            f"{rec['uncovered_indices']} unassigned for n={rec['n']}; no comparison made"
        )
    _emit(args, rec, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restchroma",
        description="Restrained chromatic polynomials, restraint classes, and extremal search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, restraint=False, k=False, x=False):
        p.add_argument("--graph", required=True,
                       help="graph: file path, short name (C7, P4, K5, K2,3, S3), graph6 or edge list")
        if restraint:
            p.add_argument("--restraint", default=None, help="restraint literal [{1},{2}] or file path")
        if k:
            p.add_argument("--k", type=int, default=1)
        if x:
            p.add_argument("--x", type=int, default=None)
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p_poly = sub.add_parser("poly", help="restrained chromatic polynomial")
    add_common(p_poly, restraint=True, x=True)
    p_poly.set_defaults(func=cmd_poly)

    p_count = sub.add_parser("count", help="brute-force colouring count")
    add_common(p_count, restraint=True, x=True)
    p_count.set_defaults(func=cmd_count)

    p_coeffs = sub.add_parser("coeffs", help="closed-form top coefficients")
    add_common(p_coeffs, restraint=True)
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_classes = sub.add_parser("classes", help="k-restraint classes up to equivalence")
    add_common(p_classes, k=True)
    p_classes.set_defaults(func=cmd_classes)

    p_ext = sub.add_parser("extremal", help="extremal restraint classes")
    add_common(p_ext, k=True)
    p_ext.add_argument("--results-dir", default=None)
    p_ext.set_defaults(func=cmd_extremal)

    p_verify = sub.add_parser("verify", help="verify a theorem over a catalog")
    p_verify.add_argument("--theorem", required=True, choices=[*THEOREMS, "all"])
    p_verify.add_argument("--n-max", type=int, default=5)
    p_verify.add_argument("--graph", default=None, help="check this one graph instead of the --n-max catalog")
    p_verify.add_argument("--k", type=int, default=1)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_conj = sub.add_parser("conjecture", help="odd-cycle maximizer pattern check")
    p_conj.add_argument("--n", type=int, required=True)
    p_conj.add_argument("--json", action="store_true")
    p_conj.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
