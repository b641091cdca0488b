"""Exhaustive extremal-restraint search and theorem verification.

For a graph and restraint size k, find_extremal lists the canon of every
equivalence class of k-restraints (enumerate_k_restraints) and ranks it by
its closed-form top coefficients (engine.dominance_key).  Only the classes
that tie the best or the worst key get their polynomial computed, and
_tie_break picks the winners under eventual dominance (eventual_order)
among them (all ties reported); every other class's witness is read from
its key.  The conjecture command runs find_extremal, and so does the
extremal command, unless it is given a results store
(load_or_compute_extremal), which serves it only.

Each theorem in THEOREMS is a predicate over one search per (graph, k),
checked on every graph of a catalog that meets its hypotheses; violations
are report content, never exceptions.  That search is theorem_search,
which walks only the classes that can win the max side, the proper ones,
and on a connected bipartite graph none, as the alternating class alone
reaches the bound of the dominance key there.  The a7 check, the only one
that reads every proper class, lists them itself when the search walked
none.  The min check reads no search (_min_check), so verify_theorems
makes none for a graph whose only check is min.  A search computes
polynomials only for _tie_break, when the best key is tied, so it holds
winners but no polynomials; a violation record computes the ones it
shows.  It is held in _SEARCHES, emptied when a search would take it past
SEARCH_MEMO_CLASSES canons, so the checks in one process share it.  The
theorem checks return only their verdicts; verify_theorems frames each
record with the graph's graph6, encoded once per graph, and k.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .engine import MemoCache, dominance_key, restrained_poly
from .graphs import Graph, ParseError, cycle_graph, quote_input, to_graph6
from .graphs import connected_bipartite_catalog  # noqa: F401  (bench/ looks it up here)
from .polynomials import IntPolynomial
from .restraints import (
    RestraintClass,
    Restraint,
    alternating_restraint,
    canonicalize,
    constant_restraint,
    enumerate_k_restraints,
    incidence_masks,
    is_proper,
    normal_form_count,
    render_id,
    render_restraint,
)

# Most canons, in total, of the theorem searches that _SEARCHES holds: a
# search holds its proper classes, or on a connected bipartite graph only its
# tied one, as it walks none there, and the a7 check keeps nothing of its own
# listing.  A canon is about a hundred bytes, so this keeps the memo to about
# a MB while it still holds every search of a catalog graph up to n = 7 at
# k = 1 (at most Bell(7) = 877 proper classes) long enough for all theorems
# to read it.  Only repeated single-graph calls read the memo,
# such as the ops of the bench verify workload: one pass of them makes 48
# searches and holds 141 canons, so nothing is evicted.  A CLI verify run
# looks each graph up once, in one verify_theorems call that shares the
# search among the theorems, so it never reads the memo.
SEARCH_MEMO_CLASSES = 1 << 13


@dataclass(frozen=True)
class ExtremalReport:
    """Winners of the eventual-dominance search over one (graph, k) pair.

    min_classes and max_classes hold every tied winner; witnesses record,
    for each losing class, the leading term of the winner-minus-loser
    difference polynomial, which certifies the strict gap for all large
    enough x.  A witness value is already the record's form, the list
    [degree, str(coefficient)]: classes share these lists, and to_record()
    hands the two maps out as they are, so callers must not mutate them.
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
            "max_witness": self.max_witness,
            "min_witness": self.min_witness,
        }


def eventual_order(p: IntPolynomial) -> tuple[int, ...]:
    """Sort key of eventual dominance: p's coefficients from the top.  Every
    polynomial compared here is a restrained chromatic polynomial of an
    n-vertex graph, monic of degree n, so the first coefficient from the top
    where two differ has the sign of their difference at every large enough
    x, and the larger key is the larger polynomial there."""
    return p.coeffs[::-1]


def _gap(hi_key, lo_key, hi_poly, lo_poly, n: int) -> list:
    """Leading term of hi_poly - lo_poly as a witness value, the list
    [degree, str(coefficient)], read off the dominance keys when they differ
    (the polynomials are then not needed, and may be None)."""
    if hi_key[0] != lo_key[0]:
        degree, coefficient = n - 2, hi_key[0] - lo_key[0]
    elif hi_key != lo_key:
        degree, coefficient = n - 3, (hi_key[1] - lo_key[1]) // 6
    else:
        diff = hi_poly - lo_poly
        degree, coefficient = diff.degree, diff.leading
    return [degree, str(coefficient)]


def _class_polys(g: Graph, memo: MemoCache):
    """canon -> its class's polynomial on g, through memo, computed once per
    canon, also when _tie_break sees the canon on both sides."""
    return cache(lambda canon: restrained_poly(g, RestraintClass(canon, g.n).representative, cache=memo))


def _tie_break(tied, extreme, poly) -> tuple[tuple, IntPolynomial]:
    """The canons of tied, in canon order, whose class polynomial poly(canon)
    is extreme (max or min) under eventual_order, and that polynomial.  Both
    searches break every tie on a side's extreme key here."""
    winner = extreme(map(poly, tied), key=eventual_order)
    return tuple(c for c in tied if poly(c) == winner), winner


def find_extremal(g: Graph, k: int, cache: MemoCache | None = None) -> ExtremalReport:
    """Determine the classes permitting the fewest/most colourings eventually.

    Every class is ranked by its closed-form top coefficients
    (engine.dominance_key).  Only the classes whose key ties the best or the
    worst get a polynomial, once each, all from one memo cache (the given
    one or a fresh one), and _tie_break picks each side's winners among
    them, so ties mean exactly equal polynomials.  Only those classes
    compare polynomials: every other class's key differs from both the best
    and the worst, so both its witnesses are read from the keys, once per
    distinct key before any class is read, and every class with that key
    shares the pair.  Both maps are then filled in one pass over the
    classes, each keyed by the id rendered from its canon (render_id), and
    no list is held per class but the canons and their keys.  A
    RestraintClass is built only for a tied class or a winner.
    """
    canons = enumerate_k_restraints(g, k)
    key = dominance_key(g, k)
    keys = list(map(key, canons))
    best, worst = max(keys), min(keys)
    poly = _class_polys(g, cache if cache is not None else MemoCache())
    max_canons, max_poly = _tie_break([c for c, c_key in zip(canons, keys) if c_key == best], max, poly)
    min_canons, min_poly = _tie_break([c for c, c_key in zip(canons, keys) if c_key == worst], min, poly)
    n = g.n
    # key -> (max witness, min witness) of the classes that tie neither side
    gaps = {class_key: (_gap(best, class_key, None, None, n), _gap(class_key, worst, None, None, n))
            for class_key in set(keys) if class_key != best and class_key != worst}
    max_witness = {}
    min_witness = {}
    for canon, class_key in zip(canons, keys):
        cid = render_id(canon, n)
        pair = gaps.get(class_key)
        if pair is not None:
            max_witness[cid], min_witness[cid] = pair
            continue
        class_poly = poly(canon)
        if class_poly != max_poly:
            max_witness[cid] = _gap(best, class_key, max_poly, class_poly, n)
        if class_poly != min_poly:
            min_witness[cid] = _gap(class_key, worst, class_poly, min_poly, n)
    return ExtremalReport(
        graph_id=to_graph6(g),
        k=k,
        class_count=len(canons),
        min_classes=tuple(RestraintClass(c, g.n) for c in min_canons),
        max_classes=tuple(RestraintClass(c, g.n) for c in max_canons),
        min_poly=min_poly,
        max_poly=max_poly,
        max_witness=max_witness,
        min_witness=min_witness,
    )


class TheoremSearch(NamedTuple):
    """What the theorem checks read of one (graph, k): max_classes, the max
    side's winners, as an ExtremalReport holds them; max_tied, the canons
    that tie the best key, in canon order, before polynomials break the
    tie; and proper, the canons of every proper class, or None when the
    search walked none (theorem_search on a connected bipartite graph).  It
    holds no polynomial: a search computes one only to break a tie, and
    _bipartite_check computes the winners' polynomial when it writes a
    violation."""

    max_classes: tuple[RestraintClass, ...]
    max_tied: tuple[tuple[int, ...], ...]
    proper: tuple[tuple[int, ...], ...] | None


def theorem_search(g: Graph, k: int) -> TheoremSearch:
    """find_extremal's max winners of (g, k), from one walk of the proper
    classes (enumerate_k_restraints's filter), the only ones that can win,
    or on a connected bipartite graph with n >= 2 from the bound below.

    engine.dominance_key ranks classes by I2 = sum over edges uv of
    |r(u) & r(v)| before anything else, the fewer the better.  Giving every
    vertex k fresh colours is proper, so I2 = 0, and every class that ties
    the best key is proper.  When one class ties the best key, it is the
    winner and gets no polynomial.  When two or more tie, _tie_break picks
    the winners among them, as in find_extremal, with each tied class's
    polynomial computed through one MemoCache; max_tied keeps the tied
    canons, for _a7_check.

    The bound.  On a proper class the key is (0, 3 * S), S the sum over
    colours c and vertices v of d(d - 1), with d = |N(v) & mask of c| the
    neighbours of v that hold c.  Those d add up to k * deg(v) over the
    colours, and each d <= deg(v), so v adds at most 3 * sum d (deg(v) - 1)
    = 3k * deg(v)(deg(v) - 1), and exactly that when each d is 0 or deg(v):
    when all of v's neighbours hold one k-set.  So B = 3k * sum over v of
    deg(v)(deg(v) - 1) bounds the second key of every proper class, and a
    proper class reaches B exactly when every two vertices that share a
    neighbour (linked vertices) hold equal sets.  On a connected graph with
    n >= 2, chains of links join any two vertices joined by a walk of even
    length.  With an odd cycle that is every pair, so all vertices hold one
    set, and the class is not proper, as it has an edge.  Without one it is
    each side of the bipartition, so each side holds one set, disjoint from
    the other's in a proper class: that is the alternating class, which
    reaches B.  So on a connected bipartite graph with n >= 2 the best key
    is (0, B), and the alternating class alone has it.
    tests/oracles.py's key_bound_faults checks this over whole catalogs.

    So on such a graph the search walks nothing: max_tied is the
    alternating class alone, with its sorted masks as its canon
    (_expected_class), and proper is None.  It checks normal_form_count's
    budget all the same, so a search refuses what find_extremal refuses.
    """
    if g.n >= 2 and g.is_connected() and g.bipartition() is not None:
        normal_form_count(g.n, k)
        max_tied = (_expected_class(alternating_restraint, g, k).canon,)
        proper = None
    else:
        proper = tuple(enumerate_k_restraints(g, k, g.adjacency_masks()))
        keys = list(map(dominance_key(g, k), proper))
        best = max(keys)
        max_tied = tuple(c for c, c_key in zip(proper, keys) if c_key == best)
    winners = _tie_break(max_tied, max, _class_polys(g, MemoCache()))[0] if len(max_tied) > 1 else max_tied
    return TheoremSearch(tuple(RestraintClass(c, g.n) for c in winners), max_tied, proper)


# -- resumable store -----------------------------------------------------------


# The line that ends a store file, after the record's --json bytes, with the
# SHA-256 of those bytes.  Bump its number whenever what a record holds
# changes, so that older files are recomputed.
STORE_TRAILER = "restchroma-store 1 sha256:{}\n"


def _sha256(data: bytes = b""):
    """hashlib.sha256(data).  hashlib is imported here, not with the module,
    because loading OpenSSL adds 3.5 MB to the peak RSS of every command,
    and only store runs hash."""
    import hashlib

    return hashlib.sha256(data)


class _Hashing:
    """A text output that passes what it is written on to out and hashes it."""

    def __init__(self, out):
        self.out = out
        self.digest = _sha256()

    def write(self, text: str) -> None:
        self.out.write(text)
        self.digest.update(text.encode("ascii"))


def _store_path(results_dir: str, graph_id: str, k: int) -> str:
    return os.path.join(results_dir, f"{graph_id.encode('ascii').hex()}_k{k}.json")


def report_from_record(g: Graph, k: int, text: str) -> ExtremalReport:
    """The report that the text of a store file of (g, k) holds.  Raises
    ValueError unless the text is a record followed by its trailer line
    (STORE_TRAILER with the record's SHA-256), the record holds g's graph6
    and k (a file copied under another pair's name still matches its own
    trailer), and RestraintClass.from_id accepts each winner id, which
    builds the winner.  A record under a matching trailer that lacks a key,
    holds a value of the wrong type or nests too deep for the decoder is
    refused the same way.  The report keeps the record's witness maps."""
    end = text.rfind("\n", 0, -1) + 1
    if text[end:] != STORE_TRAILER.format(_sha256(text[:end].encode("ascii")).hexdigest()):
        raise ValueError("the record does not match its trailer")
    try:
        record = json.JSONDecoder().raw_decode(text)[0]  # stops before the trailer
        graph_id = to_graph6(g)
        if (record["graph6"], record["k"]) != (graph_id, k):
            raise ValueError("the record holds another (graph6, k)")
        return ExtremalReport(
            graph_id=graph_id,
            k=k,
            class_count=record["class_count"],
            min_classes=tuple(RestraintClass.from_id(cid, g.n) for cid in record["min_classes"]),
            max_classes=tuple(RestraintClass.from_id(cid, g.n) for cid in record["max_classes"]),
            min_poly=IntPolynomial(int(c) for c in record["min_poly"]),
            max_poly=IntPolynomial(int(c) for c in record["max_poly"]),
            max_witness=record["max_witness"],
            min_witness=record["min_witness"],
        )
    except (KeyError, TypeError, RecursionError) as exc:  # a record of the wrong shape
        raise ValueError(f"the record has the wrong shape: {exc!r}") from None


JSON_CHUNK = 256
# json.dumps(value, sort_keys=True), with one encoder made once.  Every object
# written is a tree, built by this package or decoded from JSON, so the
# circular-reference check could never fire; left on, it costs as much as the
# chunk dicts save.
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def write_json(obj: dict, out) -> None:
    """Write json.dumps(obj, sort_keys=True) and a newline in pieces, so a
    large record is never held as one string: each top-level dict or list
    goes JSON_CHUNK items at a time through the C encoder (json.dump would
    use the pure-Python one, about 3x slower), a dict's as a chunk dict of
    its sorted keys.  cli._emit and the store of load_or_compute_extremal
    both call it, so a stored record holds the bytes that extremal --json
    prints."""
    out.write("{")
    for i, key in enumerate(sorted(obj)):
        value = obj[key]
        out.write(f"{', ' if i else ''}{encode_basestring_ascii(key)}: ")
        if isinstance(value, dict):
            out.write("{")
            _write_entries(value, out)
            out.write("}")
        elif isinstance(value, list):
            out.write("[")
            for j in range(0, len(value), JSON_CHUNK):
                piece = _encode(value[j:j + JSON_CHUNK])[1:-1]
                out.write(f", {piece}" if j else piece)
            out.write("]")
        else:
            out.write(_encode(value))
    out.write("}\n")


def _write_entries(value: dict, out) -> None:
    """write_json's entries of one dict, JSON_CHUNK at a time.  A function
    of its own, so that the sorted keys of one map are freed before the
    next map's are sorted: the two witness maps of FPpC? at k = 2 hold
    5 MB of sorted keys each."""
    keys = sorted(value)
    for j in range(0, len(keys), JSON_CHUNK):
        chunk = keys[j:j + JSON_CHUNK]
        piece = _encode(dict(zip(chunk, map(value.__getitem__, chunk))))[1:-1]
        out.write(f", {piece}" if j else piece)


def load_or_compute_extremal(g: Graph, k: int, results_dir: str) -> ExtremalReport:
    """find_extremal with a results directory keyed by (graph6, k), for the
    extremal command.

    A file holds the record's --json bytes, hashed as write_json streams
    them, then its STORE_TRAILER line.  Files are written atomically
    (temporary file, then os.replace); the temporary file is created with
    mode 0o666, so the kernel applies the umask as for a plain open(), and a
    failed write removes it before the error propagates.  A file that is
    missing or that report_from_record refuses (torn, edited, or without
    this format's trailer) is recomputed and rewritten; results_dir is made
    before the search.  Any other OSError from opening the record or making
    results_dir (a directory, a file or a symlink loop in the way, a
    dangling symlink, a name too long) raises ParseError with the path and
    the OS reason (for a dangling symlink, not mkdir's but that its target
    is missing), before any search: no other code checks the location.
    """
    path = _store_path(results_dir, to_graph6(g), k)
    try:
        try:
            with open(path, "r", encoding="ascii") as fh:
                return report_from_record(g, k, fh.read())
        except (FileNotFoundError, ValueError):
            pass  # missing, torn, edited or from an older format: recompute it
        os.makedirs(results_dir, exist_ok=True)
    except OSError as exc:
        refused = exc.filename or path
        dangling = os.path.islink(refused) and not os.path.exists(refused)
        reason = "Symbolic link to a missing target" if dangling else exc.strerror
        raise ParseError(f"results store {quote_input(refused)}: {reason}") from None
    report = find_extremal(g, k)
    tmp = os.path.join(results_dir, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            record = _Hashing(fh)
            write_json(report.to_record(), record)
            fh.write(STORE_TRAILER.format(record.digest.hexdigest()))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return report


# -- theorem verification ----------------------------------------------------------


@dataclass
class VerifyReport:
    theorem: str
    records: list

    @property
    def violations(self) -> list:
        """The records whose "ok" is False."""
        return [rec for rec in self.records if rec.get("ok") is False]

    def summary(self) -> str:
        checked = sum("skipped" not in rec for rec in self.records)
        return f"{self.theorem}: {checked} graphs checked, {len(self.violations)} violations"


def _ids(classes) -> list[str]:
    return [c.class_id() for c in classes]


def _expected_class(expected_restraint, g: Graph, k: int) -> RestraintClass:
    """The class of expected_restraint(g, k), the constant or the alternating
    restraint on a connected graph, with its sorted masks as its canon and no
    orbit computed.  That is the canon: every automorphism fixes the constant
    restraint's masks, and on a connected bipartite graph it fixes or swaps
    the two sides, so it maps the alternating restraint's masks onto
    themselves."""
    return RestraintClass(tuple(sorted(incidence_masks(expected_restraint(g, k)))), g.n)


def _min_check(g: Graph, k: int, found: TheoremSearch | None) -> dict:
    """The constant class is the only minimizing class of a connected graph,
    read from no search: found is ignored, and verify_theorems checks
    normal_form_count's budget in a search's place.  dominance_key ranks
    I2 = sum over edges uv of |r(u) & r(v)| first, the more the worse, and
    I2 <= k * m, with equality exactly when the sets are equal on every
    edge, so on a connected graph the constant class alone has the worst
    key."""
    expected = _expected_class(constant_restraint, g, k).class_id()
    return {"ok": True, "expected": expected, "min_classes": [expected]}


def _bipartite_check(g: Graph, k: int, found: TheoremSearch) -> dict:
    """Whether the alternating class is the only maximizing class; a
    violation also carries both polynomials, each computed here: that of
    the first winner, which every winner shares, and the alternating
    class's."""
    expected = _expected_class(alternating_restraint, g, k)
    ok = {c.canon for c in found.max_classes} == {expected.canon}
    rec = {
        "ok": ok,
        "expected": expected.class_id(),
        "max_classes": _ids(found.max_classes),
    }
    if not ok:
        rec["max_poly"] = [str(c) for c in restrained_poly(g, found.max_classes[0].representative).coeffs]
        rec["expected_poly"] = [str(c) for c in restrained_poly(g, expected.representative).coeffs]
    return rec


def _proper_check(g: Graph, k: int, found: TheoremSearch) -> dict:
    """Every maximizing class is a proper restraint."""
    improper = [c for c in found.max_classes if not is_proper(g, c.representative)]
    return {
        "ok": not improper,
        "max_classes": _ids(found.max_classes),
        "improper_winners": _ids(improper),
    }


def _a7_check(g: Graph, k: int, found: TheoremSearch) -> dict:
    """Every maximizing class is proper and attains the minimum of the
    per-common-neighbour overlap term (A7'', engine.common_neighbor_overlap)
    over all proper classes: found.proper, or when the search walked none,
    the ones that enumerate_k_restraints lists here, kept nowhere once the
    verdict is made.  The verdict also says whether that minimum pins down
    a unique class, and gives the once-per-pair overlap variant
    (engine.shared_pair_overlap) for each attaining class.

    On a proper class engine.dominance_key is (0, -6 * A7''), so the classes
    attaining the minimum are the max side's best-key tie set, max_tied, and
    the minimum is read from one's key.  The pair term charges each colour
    mask of a canon -1 per pair of its vertices with a common neighbour,
    each mask once per call.  Only those classes and the max winners get ids."""
    adj = g.adjacency_masks()
    proper = found.proper if found.proper is not None else enumerate_k_restraints(g, k, adj)
    # partners[i]: the vertices j != i with a neighbour in common with i
    partners = [0] * g.n
    for u, v in g.edges:
        partners[u] |= adj[v] & ~(1 << u)
        partners[v] |= adj[u] & ~(1 << v)

    @cache
    def share(mask: int) -> int:
        pairs = 0
        for v, bits in enumerate(partners):
            if mask >> v & 1:
                pairs += (bits & mask).bit_count()
        return -(pairs // 2)

    pair_terms = {render_id(canon, g.n): sum(map(share, canon)) for canon in found.max_tied}
    attaining = sorted(pair_terms)
    max_ids = sorted(_ids(found.max_classes))
    return {
        "ok": set(max_ids) <= pair_terms.keys(),  # so every maximizer is proper too
        "proper_class_count": len(proper),
        "min_term": -dominance_key(g, k)(found.max_tied[0])[1] // 6,
        "attaining": attaining,
        "unique": len(attaining) == 1,
        "pair_terms": {cid: pair_terms[cid] for cid in attaining},
        "pair_term_min": min(sum(map(share, canon)) for canon in proper),
        "max_classes": max_ids,
    }


_CONNECTED = ("not connected", Graph.is_connected)
_BIPARTITE = ("not bipartite", lambda g: g.bipartition() is not None)

# theorem -> (hypotheses as (reason skipped, predicate), check of (g, k,
# TheoremSearch) returning the verdict fields of the graph's record)
THEOREMS = {
    "min": ((_CONNECTED,), _min_check),
    "proper": ((), _proper_check),
    "bipartite": ((_CONNECTED, _BIPARTITE), _bipartite_check),
    "a7": ((), _a7_check),
}


class _SearchMemo(dict):
    """(graph6, k) -> the theorem search that the checks read again, and
    held, the canons that those searches hold in total, kept as searches
    come and go."""

    held = 0

    def search(self, g: Graph, graph_id: str, k: int) -> TheoremSearch:
        """theorem_search(g, k), held under (graph_id, k), graph_id being g's
        graph6: the key is exact, as the search is a pure function of the
        labelled graph and k.  A new search holds its proper classes, or its
        tied ones when it walked none; it is not kept when it alone holds
        more than SEARCH_MEMO_CLASSES canons, and when it would take the
        total past that, the memo is emptied first.  A refused search raises
        CapError and keeps nothing.  Every caller is handed the same object,
        which is immutable."""
        key = (graph_id, k)
        found = self.get(key)
        if found is None:
            found = theorem_search(g, k)
            size = len(found.max_tied if found.proper is None else found.proper)
            if size <= SEARCH_MEMO_CLASSES:
                if self.held + size > SEARCH_MEMO_CLASSES:
                    self.clear()
                    self.held = 0
                self[key] = found
                self.held += size
        return found


_SEARCHES = _SearchMemo()


def verify_theorems(theorems, catalog, k: int) -> dict[str, VerifyReport]:
    """Check each of theorems on every graph of a catalog, graph by graph, so
    all of a graph's checks read its one search, made only when a check
    other than min reads it.  The min check reads none, so the budget that
    a search would check, normal_form_count's (memoised), is checked for it
    on each graph: verify refuses what extremal refuses.  Returns a
    VerifyReport per theorem, in the order given.  Every record is framed
    here with the graph's graph6 and k: a checked graph gets its check's
    verdict fields, and a graph outside a theorem's hypotheses a "skipped"
    reason and no "ok".  k < 1 raises ValueError before any graph is looked
    at."""
    if k < 1:
        raise ValueError("k must be at least 1")
    records: dict[str, list] = {theorem: [] for theorem in theorems}
    for g in catalog:
        graph_id = to_graph6(g)
        found = None
        for theorem, recs in records.items():
            hypotheses, check = THEOREMS[theorem]
            reason = next((reason for reason, holds in hypotheses if not holds(g)), None)
            if reason is not None:
                recs.append({"graph6": graph_id, "k": k, "skipped": reason})
                continue
            if check is _min_check:
                normal_form_count(g.n, k)
            elif found is None:
                found = _SEARCHES.search(g, graph_id, k)
            recs.append({"graph6": graph_id, "k": k, **check(g, k, found)})
    return {theorem: VerifyReport(theorem, recs) for theorem, recs in records.items()}


def verify_min_theorem(catalog, k: int) -> VerifyReport:
    """Check that the constant restraint is the unique minimizing class.

    Disconnected inputs are skipped with a notice; each record carries the
    winner set, the constant class, which the worst key proves the only
    winner (_min_check), so a record never carries a polynomial.
    """
    return verify_theorems(("min",), catalog, k)["min"]


def verify_properness(catalog, k: int) -> VerifyReport:
    """Check that every maximizing class is a proper restraint."""
    return verify_theorems(("proper",), catalog, k)["proper"]


def verify_bipartite_max(catalog, k: int) -> VerifyReport:
    """Check that the alternating restraint is the unique maximizing class
    on connected bipartite graphs; disconnected and non-bipartite inputs
    are skipped with a notice."""
    return verify_theorems(("bipartite",), catalog, k)["bipartite"]


def verify_a7_condition(g: Graph, k: int) -> dict:
    """Check the two necessary maximality conditions on one graph."""
    return verify_theorems(("a7",), [g], k)["a7"].records[0]


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

