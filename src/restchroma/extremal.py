"""Exhaustive extremal-restraint search and theorem verification.

For a graph and restraint size k, every equivalence class of k-restraints
is enumerated and ranked by its closed-form top coefficients
(engine.dominance_key).  Only the classes that tie the best or the worst
key get their polynomial computed; the winners under eventual dominance
are collected among them (all ties reported), and every other class's
witness is read from its key.  Each theorem in THEOREMS is a
predicate over that one search, checked on every graph of a catalog that
meets its hypotheses; violations are report content, never exceptions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial

from .engine import MemoCache, common_neighbor_overlap, dominance_key, restrained_poly, shared_pair_overlap
from .graphs import Graph, cycle_graph, to_graph6
from .graphs import connected_bipartite_catalog  # noqa: F401  (bench/ looks it up here)
from .polynomials import IntPolynomial
from .restraints import (
    RestraintClass,
    Restraint,
    alternating_restraint,
    canonicalize,
    constant_restraint,
    enumerate_k_restraints,
    is_proper,
    parse_restraint,
    render_restraint,
)


@dataclass(frozen=True)
class ExtremalReport:
    """Winners of the eventual-dominance search over one (graph, k) pair.

    min_classes and max_classes hold every tied winner; witnesses record,
    for each losing class, the leading term (degree, coefficient) of the
    winner-minus-loser difference polynomial, which certifies the strict
    gap for all large enough x.
    """

    graph_id: str
    k: int
    class_count: int
    min_classes: tuple[RestraintClass, ...]
    max_classes: tuple[RestraintClass, ...]
    min_poly: IntPolynomial
    max_poly: IntPolynomial
    max_witness: dict
    min_witness: dict

    def to_record(self) -> dict:
        return {
            "graph6": self.graph_id,
            "k": self.k,
            "class_count": self.class_count,
            "min_classes": [c.class_id() for c in self.min_classes],
            "max_classes": [c.class_id() for c in self.max_classes],
            "min_poly": [str(c) for c in self.min_poly.coeffs],
            "max_poly": [str(c) for c in self.max_poly.coeffs],
            "max_witness": {cid: [d, str(c)] for cid, (d, c) in self.max_witness.items()},
            "min_witness": {cid: [d, str(c)] for cid, (d, c) in self.min_witness.items()},
        }


def _gap(hi_key, lo_key, hi_poly, lo_poly, n: int) -> tuple[int, int]:
    """Leading term (degree, coefficient) of hi_poly - lo_poly, read off the
    dominance keys when they differ (the polynomials are then not needed,
    and may be None)."""
    if hi_key[0] != lo_key[0]:
        return n - 2, hi_key[0] - lo_key[0]
    if hi_key != lo_key:
        return n - 3, (hi_key[1] - lo_key[1]) // 6
    diff = hi_poly - lo_poly
    return diff.degree, diff.leading


def find_extremal(g: Graph, k: int, cache: MemoCache | None = None) -> ExtremalReport:
    """Determine the classes permitting the fewest/most colourings eventually.

    Every class is ranked by its closed-form top coefficients
    (engine.dominance_key).  Only the classes whose key ties the best or the
    worst get a polynomial, all from one memo cache (the given one or a fresh
    one); the winners are the tied classes with the largest or smallest
    polynomial, so ties mean exactly equal polynomials.  Only those classes
    compare polynomials: every other class's key differs from both the best
    and the worst, so both its witnesses are read from the keys.
    """
    classes = enumerate_k_restraints(g, k)
    key = dominance_key(g, k)
    keys = [key(c.canon) for c in classes]
    best, worst = max(keys), min(keys)
    memo = cache if cache is not None else MemoCache()
    polys = {
        i: restrained_poly(g, cls.representative, cache=memo)
        for i, (cls, class_key) in enumerate(zip(classes, keys))
        if class_key in (best, worst)
    }
    # every polynomial is monic of degree n, so comparing the coefficient
    # tuples from the top is eventual dominance
    max_poly = max((p for i, p in polys.items() if keys[i] == best), key=lambda p: p.coeffs[::-1])
    min_poly = min((p for i, p in polys.items() if keys[i] == worst), key=lambda p: p.coeffs[::-1])
    max_witness = {}
    min_witness = {}
    for i, (cls, class_key) in enumerate(zip(classes, keys)):
        cid = cls.class_id()
        poly = polys.get(i)
        if poly is None:
            max_witness[cid] = _gap(best, class_key, None, None, g.n)
            min_witness[cid] = _gap(class_key, worst, None, None, g.n)
            continue
        if poly != max_poly:
            max_witness[cid] = _gap(best, class_key, max_poly, poly, g.n)
        if poly != min_poly:
            min_witness[cid] = _gap(class_key, worst, poly, min_poly, g.n)
    return ExtremalReport(
        graph_id=to_graph6(g),
        k=k,
        class_count=len(classes),
        min_classes=tuple(classes[i] for i, p in polys.items() if p == min_poly),
        max_classes=tuple(classes[i] for i, p in polys.items() if p == max_poly),
        min_poly=min_poly,
        max_poly=max_poly,
        max_witness=max_witness,
        min_witness=min_witness,
    )


# -- resumable store -----------------------------------------------------------


def _store_path(results_dir: str, graph_id: str, k: int) -> str:
    return os.path.join(results_dir, f"{graph_id.encode('ascii').hex()}_k{k}.json")


def report_from_record(g: Graph, record: dict) -> ExtremalReport:
    def classes_of(ids):
        return tuple(canonicalize(g, parse_restraint(cid)) for cid in ids)

    return ExtremalReport(
        graph_id=record["graph6"],
        k=record["k"],
        class_count=record["class_count"],
        min_classes=classes_of(record["min_classes"]),
        max_classes=classes_of(record["max_classes"]),
        min_poly=IntPolynomial(int(c) for c in record["min_poly"]),
        max_poly=IntPolynomial(int(c) for c in record["max_poly"]),
        max_witness={cid: (d, int(c)) for cid, (d, c) in record["max_witness"].items()},
        min_witness={cid: (d, int(c)) for cid, (d, c) in record["min_witness"].items()},
    )


JSON_CHUNK = 256


def write_json(obj: dict, out) -> None:
    """Write json.dumps(obj, sort_keys=True) and a newline in pieces, so a
    large record is never held as one string: each top-level dict or list
    goes JSON_CHUNK items at a time through the C encoder (json.dump would
    use the pure-Python one, about 3x slower).  cli._emit and the store of
    load_or_compute_extremal both call it, so a stored record holds the
    bytes that extremal --json prints."""
    out.write("{")
    for i, key in enumerate(sorted(obj)):
        value = obj[key]
        out.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        if isinstance(value, (dict, list)):
            is_map = isinstance(value, dict)
            seq = sorted(value) if is_map else value
            out.write("{" if is_map else "[")
            for j in range(0, len(seq), JSON_CHUNK):
                chunk = seq[j:j + JSON_CHUNK]
                piece = json.dumps({k: value[k] for k in chunk} if is_map else chunk, sort_keys=True)[1:-1]
                out.write(f", {piece}" if j else piece)
            out.write("}" if is_map else "]")
        else:
            out.write(json.dumps(value, sort_keys=True))
    out.write("}\n")


def load_or_compute_extremal(g: Graph, k: int, results_dir: str) -> ExtremalReport:
    """find_extremal with a results directory keyed by (graph6, k).

    Records are written atomically (temporary file, then os.replace); the
    temporary file is created with mode 0o666, so the kernel applies the
    umask as for a plain open(), and a failed write removes it before the
    error propagates.  A record that does not parse, holds another (graph6, k), or whose winners plus
    witnesses on either side are not class_count classes is recomputed.
    """
    graph_id = to_graph6(g)
    path = _store_path(results_dir, graph_id, k)
    try:
        with open(path, "r", encoding="ascii") as fh:
            record = json.load(fh)
        counts = {len(record[f"{side}_classes"]) + len(record[f"{side}_witness"]) for side in ("min", "max")}
        if (record["graph6"], record["k"]) == (graph_id, k) and counts == {record["class_count"]}:
            return report_from_record(g, record)
    except (FileNotFoundError, ValueError, KeyError, TypeError, AttributeError):
        pass  # missing, truncated or corrupt: recompute it
    report = find_extremal(g, k)
    os.makedirs(results_dir, exist_ok=True)
    tmp = os.path.join(results_dir, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            write_json(report.to_record(), fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return report


# -- theorem verification ----------------------------------------------------------


@dataclass
class VerifyReport:
    theorem: str
    k: int
    records: list
    violations: list

    def summary(self) -> str:
        return f"{self.theorem}: {len(self.records)} graphs checked, {len(self.violations)} violations"


def _ids(classes) -> list[str]:
    return [c.class_id() for c in classes]


def _unique_winner(side: str, expected_restraint, g: Graph, k: int, report: ExtremalReport) -> dict:
    """Record whether the class of expected_restraint(g, k) is the only winner
    on side ("min" or "max"); a violation also carries both polynomials."""
    winners = getattr(report, f"{side}_classes")
    expected = canonicalize(g, expected_restraint(g, k))
    ok = {c.canon for c in winners} == {expected.canon}
    rec = {
        "graph6": report.graph_id,
        "k": k,
        "ok": ok,
        "expected": expected.class_id(),
        f"{side}_classes": _ids(winners),
    }
    if not ok:
        rec[f"{side}_poly"] = [str(c) for c in getattr(report, f"{side}_poly").coeffs]
        rec["expected_poly"] = [str(c) for c in restrained_poly(g, expected.representative).coeffs]
    return rec


def _proper_check(g: Graph, k: int, report: ExtremalReport) -> dict:
    """Every maximizing class is a proper restraint."""
    improper = [c for c in report.max_classes if not is_proper(g, c.representative)]
    return {
        "graph6": report.graph_id,
        "k": k,
        "ok": not improper,
        "max_classes": _ids(report.max_classes),
        "improper_winners": _ids(improper),
    }


def _a7_check(g: Graph, k: int, report: ExtremalReport) -> dict:
    """Every maximizing class is proper and attains the minimum of the
    per-common-neighbour overlap term over all proper classes (the max
    winners plus the max_witness keys).  The record also says whether that
    minimum pins down a unique class, and gives the once-per-pair overlap
    variant for each attaining class."""
    max_ids = _ids(report.max_classes)
    restraints = {cid: parse_restraint(cid) for cid in max_ids + list(report.max_witness)}
    proper = {cid: r for cid, r in restraints.items() if is_proper(g, r)}
    terms = {cid: common_neighbor_overlap(g, r) for cid, r in proper.items()}
    pair_terms = {cid: shared_pair_overlap(g, r) for cid, r in proper.items()}
    minimum = min(terms.values())
    attaining = sorted(cid for cid, t in terms.items() if t == minimum)
    return {
        "graph6": report.graph_id,
        "k": k,
        "ok": set(max_ids) <= set(attaining),  # so every maximizer is proper too
        "proper_class_count": len(proper),
        "min_term": minimum,
        "attaining": attaining,
        "unique": len(attaining) == 1,
        "pair_terms": {cid: pair_terms[cid] for cid in attaining},
        "pair_term_min": min(pair_terms.values()),
        "max_classes": sorted(max_ids),
    }


_CONNECTED = ("not connected", Graph.is_connected)
_BIPARTITE = ("not bipartite", lambda g: g.bipartition() is not None)

# theorem -> (hypotheses as (reason skipped, predicate), check of (g, k, report))
THEOREMS = {
    "min": ((_CONNECTED,), partial(_unique_winner, "min", constant_restraint)),
    "proper": ((), _proper_check),
    "bipartite": ((_CONNECTED, _BIPARTITE), partial(_unique_winner, "max", alternating_restraint)),
    "a7": ((), _a7_check),
}


def skip_reason(theorem: str, g: Graph) -> str | None:
    """The first hypothesis of theorem that g fails, or None."""
    return next((reason for reason, holds in THEOREMS[theorem][0] if not holds(g)), None)


def verify_catalog(theorem: str, catalog, k: int, results_dir: str | None = None) -> VerifyReport:
    """Check a theorem on every graph of a catalog, one search per graph
    (read from or added to the store in results_dir, when given).  A graph
    outside the theorem's hypotheses gets a "skipped" reason and no "ok"; a
    record whose "ok" is False is a violation.  k < 1 raises ValueError
    before any graph is looked at."""
    if k < 1:
        raise ValueError("k must be at least 1")
    check = THEOREMS[theorem][1]
    records = []
    for g in catalog:
        reason = skip_reason(theorem, g)
        if reason is not None:
            records.append({"graph6": to_graph6(g), "k": k, "skipped": reason})
            continue
        report = find_extremal(g, k) if results_dir is None else load_or_compute_extremal(g, k, results_dir)
        records.append(check(g, k, report))
    violations = [rec for rec in records if rec.get("ok") is False]
    return VerifyReport(theorem=theorem, k=k, records=records, violations=violations)


def verify_min_theorem(catalog, k: int) -> VerifyReport:
    """Check that the constant restraint is the unique minimizing class.

    Disconnected inputs are skipped with a notice; each record carries the
    winner set and, on a violation, the witnessing polynomial coefficient
    vectors.
    """
    return verify_catalog("min", catalog, k)


def verify_properness(catalog, k: int) -> VerifyReport:
    """Check that every maximizing class is a proper restraint."""
    return verify_catalog("proper", catalog, k)


def verify_bipartite_max(catalog, k: int) -> VerifyReport:
    """Check that the alternating restraint is the unique maximizing class
    on connected bipartite graphs; disconnected and non-bipartite inputs
    are skipped with a notice."""
    return verify_catalog("bipartite", catalog, k)


def verify_a7_condition(g: Graph, k: int) -> dict:
    """Check the two necessary maximality conditions on one graph."""
    return _a7_check(g, k, find_extremal(g, k))


# -- odd-cycle conjecture ------------------------------------------------------------


def conjectured_odd_cycle_restraint(n: int) -> tuple[Restraint | None, list[int]]:
    """Build the conjectured odd-cycle maximizer by the printed index cases.

    Colour 1 on odd positions up to (n-1)/2; colour 2 on even positions up
    to (n-3)/2 and on (n+3)/2, (n+7)/2, ...; colour 3 on (n+1)/2,
    (n+5)/2, ... up to n-1 (positions 1-based).  Returns the restraint and
    the list of uncovered positions; when any position is uncovered the
    restraint is None (pattern ill-defined for that n).  The four index
    ranges never overlap: the two below (n+1)/2 have opposite parity, and
    so do the two from (n+1)/2 up.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError("n must be an odd integer >= 5")
    assignment: dict[int, int] = {}
    for i in range(1, (n - 1) // 2 + 1, 2):
        assignment[i] = 1
    for i in range(2, (n - 3) // 2 + 1, 2):
        assignment[i] = 2
    for i in range((n + 3) // 2, n + 1, 2):
        assignment[i] = 2
    for i in range((n + 1) // 2, n, 2):
        assignment[i] = 3
    uncovered = [i for i in range(1, n + 1) if i not in assignment]
    if uncovered:
        return None, uncovered
    return Restraint([(assignment[i],) for i in range(1, n + 1)]), []


def check_conjecture(n: int) -> dict:
    """Compare the conjectured odd-cycle pattern against exhaustive search.

    Reports, never asserts: the record carries the winner classes, the
    built pattern (when its index cases cover every position), and whether
    they coincide (None when the pattern is ill-defined for this n).  The
    pattern is stated for k = 1 only, so that is the k searched.
    """
    star, uncovered = conjectured_odd_cycle_restraint(n)
    g = cycle_graph(n)
    report = find_extremal(g, 1)
    winners = sorted(_ids(report.max_classes))
    rec = {
        "n": n,
        "k": 1,
        "pattern_total": star is not None,
        "uncovered_indices": uncovered,
        "conjectured": render_restraint(star) if star is not None else None,
        "winners": winners,
        "class_count": report.class_count,
        "matches": None,
    }
    if star is not None:
        star_class = canonicalize(g, star)
        rec["conjectured_class"] = star_class.class_id()
        rec["matches"] = {c.canon for c in report.max_classes} == {star_class.canon}
    return rec

