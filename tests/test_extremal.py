import dataclasses
import gc
import hashlib
import json
import os
import random
import stat

import pytest

from restchroma import extremal, restraints
from restchroma import (
    CapError,
    Graph,
    MemoCache,
    all_connected_graphs,
    alternating_restraint,
    canonicalize,
    check_conjecture,
    coeff_n1,
    coeff_n2,
    common_neighbor_overlap,
    complete_graph,
    conjectured_odd_cycle_restraint,
    connected_bipartite_catalog,
    connected_catalog,
    constant_restraint,
    count_colourings,
    cycle_graph,
    dominance_key,
    enumerate_k_restraints,
    find_extremal,
    from_name,
    is_proper,
    load_or_compute_extremal,
    parse_graph6,
    parse_restraint,
    path_graph,
    restrained_poly,
    shared_pair_overlap,
    to_graph6,
    verify_a7_condition,
    verify_bipartite_max,
    verify_min_theorem,
    verify_properness,
)
from conftest import labelled_graphs, no_search, restraint_classes, tie_break_mismatches

R = parse_restraint


def a7_oracle_record(g, report):
    """The a7 verdict built the direct way: every class id of the report
    parsed back to a Restraint, properness tested edge by edge, and both
    overlap terms summed per restraint."""
    max_ids = [c.class_id() for c in report.max_classes]
    parsed = {cid: parse_restraint(cid) for cid in max_ids + list(report.max_witness)}
    proper = {cid: r for cid, r in parsed.items() if is_proper(g, r)}
    terms = {cid: common_neighbor_overlap(g, r) for cid, r in proper.items()}
    pair_terms = {cid: shared_pair_overlap(g, r) for cid, r in proper.items()}
    minimum = min(terms.values())
    attaining = sorted(cid for cid, t in terms.items() if t == minimum)
    return {
        "ok": set(max_ids) <= set(attaining),
        "proper_class_count": len(proper),
        "min_term": minimum,
        "attaining": attaining,
        "unique": len(attaining) == 1,
        "pair_terms": {cid: pair_terms[cid] for cid in attaining},
        "pair_term_min": min(pair_terms.values()),
        "max_classes": sorted(max_ids),
    }


def a7_mismatches(catalog, k, results_dir=None):
    """(graph6, what) for each graph of catalog whose a7 verdict, read from
    the theorem search, differs from a7_oracle_record of the full report, or
    on which some class's properness (is_proper on its parsed id) disagrees
    with "max winner, or max witness of degree below n - 2" (the best key has
    I2 = 0, so a class is improper exactly when its gap to the best is read
    off I2, at degree n - 2: extremal._gap).  With results_dir, each full
    search is also written to that store and read back, and the report read
    is checked the same way."""
    bad = []
    for g in catalog:
        if results_dir is None:
            reports = [("fresh", find_extremal(g, k))]
        else:
            reports = [("fresh", load_or_compute_extremal(g, k, results_dir)),
                       ("stored", load_or_compute_extremal(g, k, results_dir))]
        verdict = extremal._a7_check(g, k, extremal.theorem_search(g, k))
        for source, report in reports:
            if verdict != a7_oracle_record(g, report):
                bad.append((report.graph_id, f"{source} a7 verdict"))
            if not all(is_proper(g, c.representative) for c in report.max_classes):
                bad.append((report.graph_id, f"{source} improper winner"))
            for cid, (degree, _) in report.max_witness.items():
                if is_proper(g, parse_restraint(cid)) != (degree < g.n - 2):
                    bad.append((report.graph_id, f"{source} properness of {cid}"))
    return bad


def theorem_search_mismatches(graphs, k):
    """(graph6, what) for each graph whose theorem search differs from
    find_extremal's full search: the max winners, in order, and the
    polynomial of every max winner against the full report's max
    polynomial; on a connected graph, the min record's winner ids against
    the full report's min winners, in order, and the constant class's
    polynomial against its min polynomial; or whose proper classes differ
    from the canons of the classes of enumerate_k_restraints that is_proper
    accepts, tested edge by edge on each representative; or whose max_tied
    differs from the canons of that unfiltered listing that tie its best
    dominance key, in canon order."""
    bad = []
    _, min_check = extremal.THEOREMS["min"]
    for g in graphs:
        found = extremal.theorem_search(g, k)
        report = find_extremal(g, k)
        if found.max_classes != report.max_classes:
            bad.append((report.graph_id, "max_classes"))
        if any(restrained_poly(g, c.representative) != report.max_poly for c in found.max_classes):
            bad.append((report.graph_id, "max polynomial"))
        if g.is_connected():
            if min_check(g, k, found)["min_classes"] != [c.class_id() for c in report.min_classes]:
                bad.append((report.graph_id, "min_classes"))
            if restrained_poly(g, constant_restraint(g, k)) != report.min_poly:
                bad.append((report.graph_id, "min polynomial"))
        classes = restraint_classes(g, k)
        proper = [c.canon for c in classes if is_proper(g, c.representative)]
        if sorted(found.proper) != sorted(proper):
            bad.append((report.graph_id, "proper classes"))
        key = dominance_key(g, k)
        keys = [key(c.canon) for c in classes]
        best = max(keys)
        if found.max_tied != tuple(c.canon for c, c_key in zip(classes, keys) if c_key == best):
            bad.append((report.graph_id, "max tie set"))
    return bad


def canons(classes):
    return {c.canon for c in classes}


class TestFindExtremal:
    def test_triangle(self, c3):
        rep = find_extremal(c3, 1)
        assert rep.class_count == 3
        assert canons(rep.min_classes) == {canonicalize(c3, R("[{1},{1},{1}]")).canon}
        assert canons(rep.max_classes) == {canonicalize(c3, R("[{1},{2},{3}]")).canon}

    def test_four_cycle(self, c4):
        rep = find_extremal(c4, 1)
        assert rep.class_count == 7
        assert canons(rep.max_classes) == {canonicalize(c4, R("[{1},{2},{1},{2}]")).canon}
        assert canons(rep.min_classes) == {canonicalize(c4, constant_restraint(c4, 1)).canon}

    def test_seven_cycle(self, c7):
        rep = find_extremal(c7, 1)
        target = canonicalize(c7, R("[{1},{2},{1},{2},{3},{1},{3}]"))
        assert canons(rep.max_classes) == {target.canon}

    def test_witnesses_certify_strict_gaps(self, c4):
        rep = find_extremal(c4, 1)
        winners = {c.class_id() for c in rep.max_classes}
        assert set(rep.max_witness) == {
            c.class_id() for c in restraint_classes(c4, 1)
        } - winners
        for degree, coeff in rep.max_witness.values():
            assert int(coeff) > 0
            assert 0 <= degree < c4.n  # top coefficients agree for k-restraints
        for degree, coeff in rep.min_witness.values():
            assert int(coeff) > 0

    def test_witnesses_are_leading_terms_of_differences(self):
        # every class against its own polynomial: a class that is not a
        # winner has, as its witness, the leading [degree, str(coefficient)]
        # of max_poly - p, or of p - min_poly on the min side
        cases = [(g, k) for k in (1, 2) for g in connected_catalog(4)] + [(cycle_graph(6), 1)]
        for g, k in cases:
            rep = find_extremal(g, k)
            for cls in restraint_classes(g, k):
                p = restrained_poly(g, cls.representative)
                cid = cls.class_id()
                for witness, diff in ((rep.max_witness, rep.max_poly - p), (rep.min_witness, p - rep.min_poly)):
                    if diff.degree < 0:
                        assert cid not in witness
                    else:
                        assert witness[cid] == [diff.degree, str(diff.leading)], (g, k, cid)

    def test_winners_and_witnesses_cover_every_class(self):
        # the a7 check and the store's consistency check read the class list
        # off a report as its winners plus its witness keys
        cases = [(g, 1) for g in connected_catalog(5)] + [(g, 2) for g in connected_catalog(4)]
        for g, k in cases:
            rep = find_extremal(g, k)
            every = {c.class_id() for c in restraint_classes(g, k)}
            assert len(rep.max_classes) + len(rep.max_witness) == rep.class_count == len(every)
            assert {c.class_id() for c in rep.max_classes} | set(rep.max_witness) == every
            assert {c.class_id() for c in rep.min_classes} | set(rep.min_witness) == every

    def test_restraints_built_only_for_tied_keys(self, monkeypatch):
        # classes are ranked and named on their masks; only a class whose
        # key ties the best or the worst becomes a Restraint, for its polynomial
        from restchroma import restraints

        g = path_graph(8)
        key = dominance_key(g, 1)
        keys = list(map(key, enumerate_k_restraints(g, 1)))
        tied = sum(k in (max(keys), min(keys)) for k in keys)
        built = []
        real = restraints.Restraint
        monkeypatch.setattr(restraints, "Restraint", lambda sets: built.append(sets) or real(sets))
        rep = find_extremal(g, 1)
        assert len(built) == tied < rep.class_count

    def test_class_tied_on_both_sides_gets_one_polynomial(self, monkeypatch):
        # on an edgeless graph every class ties both the best and the worst
        # key, so _tie_break sees it twice, and it is computed once
        calls = []
        real = extremal.restrained_poly
        monkeypatch.setattr(extremal, "restrained_poly", lambda g, r, **kwargs: calls.append(r) or real(g, r, **kwargs))
        rep = find_extremal(Graph(3), 2)
        assert len(calls) == rep.class_count == len(rep.max_classes) == len(rep.min_classes) > 1

    def test_tied_winners_share_polynomial(self):
        # disconnected graphs tie: any per-component constant is minimal
        g = Graph(3, [(0, 1)])
        rep = find_extremal(g, 1)
        assert len(rep.min_classes) == 2
        for cls in rep.min_classes:
            assert restrained_poly(g, cls.representative) == rep.min_poly
            for back in ((0, 1), (2,)):  # the edge and the isolated vertex
                sets = {cls.representative[v] for v in back}
                assert len(sets) == 1  # constant on each component
        assert canons(rep.min_classes) >= {canonicalize(g, constant_restraint(g, 1)).canon}

    # sha256 of json.dumps(find_extremal(g, k).to_record(), sort_keys=True),
    # taken when every class still got its full polynomial; K1 and K2 are
    # the catalog's graphs with n <= 2
    RECORD_DIGESTS = {
        ("C7", 1): "9c63230bd8a0ee7301157c25c4591bce0d090dbfb46231a36dc57f6a25f9c671",
        ("C8", 1): "34aa7874f07c75e5fcbed7aa517dcba305865518023a1432c3a8240caf01ef07",
        ("P8", 1): "54a4aa2fc12cf28662b9d081918f8c1d7af852addbe7d17d0b4495891e98bcdf",
        ("K6", 1): "30690ad6e9e607f075382ae70cc71e3e83624af7f75583ef77647fc5e574c497",
        ("K5", 2): "6550751e729f88601314b539ddd4c9e704ffd39a1330a7e555ef8650b4a0a804",
        ("K2,3", 2): "616e5d3625215db85765c4df72c50ddbd091efcde98264a21989597b4e798c4a",
        ("P5", 2): "710ee7aae788f61dd2b923a62e62a477adede9245a639fa48899e0d41cdcde65",
        ("C5", 2): "17ba41aae3e0ff702ec08fdeb4eac3ba486badd884c42aee2c2b8854396608e5",
        ("K1", 1): "b641350ac77ca1469ece1412af4e1a40564c3c2cab1636cc3c80c1cd965669dc",
        ("K2", 1): "df39e2e8f3c4aa56d2490a8a61a16345d74d10840b3c93e9a564ba6ee990b40f",
        ("K1", 2): "7f2bb0577c5729648dadbd1e57c593b36cc20b7e307a6634150c7024bea811b1",
        ("K2", 2): "39269ee740fe150837824d510c192959c2d381ff2d9c7fcf33d1ea7142ee5a32",
        ("C4", 3): "e6ef52684444e468ef89dfdc5514e6360574ea221748a1c73d6616ab5a0a9dd5",
        ("P4", 3): "c0a2d47e5060ce5fd89288b9da06222553d333cc0feb1a2153e175e92fae9043",
    }

    @pytest.mark.parametrize("name, k", sorted(RECORD_DIGESTS))
    def test_records_pinned(self, name, k):
        record = find_extremal(from_name(name), k).to_record()
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        assert digest == self.RECORD_DIGESTS[name, k]

    def test_shared_cache(self, c4):
        cache = MemoCache()
        find_extremal(c4, 1, cache=cache)
        assert cache.peak_entries > 0
        before = cache.hits
        find_extremal(c4, 1, cache=cache)
        assert cache.hits > before


def _drop_one_max_witness(record: dict) -> str:
    """A record that parses but no longer lists every class."""
    record["max_witness"].pop(min(record["max_witness"]))
    return json.dumps(record, sort_keys=True)


def _rename_one_max_witness(text: str) -> str:
    """The record text with one max_witness key renamed to "not a class":
    every count still holds, but the max side no longer names the min side's
    classes."""
    record = json.loads(text)
    record["max_witness"]["not a class"] = record["max_witness"].pop(min(record["max_witness"]))
    return json.dumps(record, sort_keys=True)


def _with_max_witness_value(text: str, value) -> str:
    """The record text with one max_witness value replaced by value."""
    record = json.loads(text)
    record["max_witness"][min(record["max_witness"])] = value
    return json.dumps(record, sort_keys=True)


def _rename_class(text: str, cid: str, new: str) -> str:
    """The record text with witness key cid renamed to new on both sides:
    every count holds, and both sides still name the same classes."""
    record = json.loads(text)
    for side in ("min_witness", "max_witness"):
        record[side][new] = record[side].pop(cid)
    return json.dumps(record, sort_keys=True)


def _winners_twice_one_witness_dropped(text: str) -> str:
    """The record text with each side's winners listed twice and one class
    that wins on neither side dropped from both witness maps: the counts
    hold, and both sides name the same classes."""
    record = json.loads(text)
    for side in ("min", "max"):
        record[f"{side}_classes"] *= 2
    dropped = min(set(record["max_witness"]).difference(record["min_classes"]))
    for side in ("min_witness", "max_witness"):
        del record[side][dropped]
    return json.dumps(record, sort_keys=True)


def _store_file(report) -> str:
    """The text of the store file of report: its --json bytes, then the
    trailer line of their SHA-256."""
    record = json.dumps(report.to_record(), sort_keys=True) + "\n"
    return f"{record}restchroma-store 1 sha256:{hashlib.sha256(record.encode('ascii')).hexdigest()}\n"


def _on_record(edit):
    """A damage to a store file's text that applies edit to its record line
    and keeps the trailer line as written."""
    def damage(text: str) -> str:
        record, trailer = text.split("\n", 1)
        return f"{edit(record)}\n{trailer}"
    return damage


def _with_max_winner(text: str, cid: str) -> str:
    """The record text with its one max winner id replaced by cid."""
    record = json.loads(text)
    record["max_classes"] = [cid]
    return json.dumps(record, sort_keys=True)


def _refuse(*args, **kwargs):
    raise AssertionError("a store read listed automorphisms, canonicalized or parsed a restraint")


class TestResumableStore:
    def test_round_trip(self, tmp_path, c4):
        first = load_or_compute_extremal(c4, 1, str(tmp_path))
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        record = json.loads(files[0].read_text().split("\n")[0])
        assert record["graph6"] == to_graph6(c4)
        second = load_or_compute_extremal(c4, 1, str(tmp_path))
        assert second.to_record() == first.to_record()
        assert canons(second.max_classes) == canons(first.max_classes)

    def test_keyed_per_graph_and_k(self, tmp_path, c3, c4):
        load_or_compute_extremal(c3, 1, str(tmp_path))
        load_or_compute_extremal(c4, 1, str(tmp_path))
        load_or_compute_extremal(c4, 2, str(tmp_path))
        assert len(list(tmp_path.iterdir())) == 3

    @pytest.mark.parametrize("damage", [
        _on_record(lambda text: text[: len(text) // 2]),
        _on_record(lambda text: ""),
        _on_record(lambda text: "[]"),
        _on_record(lambda text: text.replace('"k": 1', '"k": 2')),
        _on_record(lambda text: _drop_one_max_witness(json.loads(text))),
        # C4's max winner is [{1},{2},{1},{2}]; each of these ids fails to
        # re-encode to itself on C4's 4 vertices
        _on_record(lambda text: _with_max_winner(text, "[{2},{1},{2},{1}]")),
        _on_record(lambda text: _with_max_winner(text, "[{1},{2},{1},{2},{1}]")),
        _on_record(lambda text: _with_max_winner(text, "alternating")),
        # a valid id of another class, which is still a max witness key
        _on_record(lambda text: _with_max_winner(text, "[{1},{1},{2},{2}]")),
        _on_record(_rename_one_max_witness),
        # C4's rainbow class, proper, renamed on both sides to an id whose
        # masks re-encode to [{1},{2},{1},{2}]
        _on_record(lambda text: _rename_class(text, "[{1},{2},{3},{4}]", "[{1},{3},{1},{3}]")),
        # an improper class renamed on both sides to a key of no id's shape
        _on_record(lambda text: _rename_class(text, "[{1},{1},{2},{2}]", "not a class")),
        _on_record(_winners_twice_one_witness_dropped),
        # witness values that are not [degree, str(coefficient)]: C4's
        # min(max_witness) is [2, "4"]
        _on_record(lambda text: _with_max_witness_value(text, ["x", "4"])),
        _on_record(lambda text: _with_max_witness_value(text, [True, "4"])),
        _on_record(lambda text: _with_max_witness_value(text, [2.0, "4"])),
        _on_record(lambda text: _with_max_witness_value(text, [2, "04"])),
        _on_record(lambda text: _with_max_witness_value(text, [2, 4])),
        _on_record(lambda text: _with_max_witness_value(text, [2, "4", 0])),
        # true == 1 and 7.0 == 7, so these pass a comparison of values
        _on_record(lambda text: text.replace('"k": 1', '"k": true').replace('"class_count": 7,', '"class_count": 7.0,')),
        # the record as written, under a trailer with one hex digit changed
        lambda text: text[:-2] + "10"[text[-2] == "1"] + "\n",
        # the record as written with no trailer, as files were before it
        lambda text: text.split("\n")[0] + "\n",
        # C4's file at k = 2, copied under the k = 1 name: its trailer matches
        lambda text: _store_file(find_extremal(cycle_graph(4), 2)),
    ], ids=["truncated", "empty", "not-an-object", "other-k", "missing-class",
            "swapped-labels", "extra-vertex-set", "not-an-id", "witness-as-winner", "renamed-witness",
            "non-canonical-proper-key", "renamed-improper-key", "winners-twice-one-witness-dropped",
            "degree-not-an-int", "degree-a-bool", "degree-a-float", "coefficient-not-canonical",
            "coefficient-a-number", "witness-too-long", "scalars-true-and-float", "trailer-altered",
            "no-trailer", "another-pairs-file"])
    def test_unreadable_record_is_recomputed(self, tmp_path, c4, monkeypatch, damage):
        # compared as text, since 2.0 == 2 and True == 1 in Python; the file
        # is rewritten as the record and its trailer, and read from then on
        sealed = _store_file(find_extremal(c4, 1))
        load_or_compute_extremal(c4, 1, str(tmp_path))
        (path,) = tmp_path.iterdir()
        assert path.read_text() == sealed
        path.write_text(damage(sealed))
        assert _store_file(load_or_compute_extremal(c4, 1, str(tmp_path))) == sealed
        assert path.read_text() == sealed
        assert list(tmp_path.iterdir()) == [path]
        monkeypatch.setattr(extremal, "find_extremal", no_search)
        assert _store_file(load_or_compute_extremal(c4, 1, str(tmp_path))) == sealed

    @pytest.mark.parametrize("name, k", [("K6", 1), ("C4", 2)])
    def test_read_decodes_winner_ids(self, tmp_path, monkeypatch, name, k):
        # a store read builds each winner from its id's masks: it lists no
        # automorphisms, canonicalizes nothing, parses no restraint and
        # searches nothing
        fresh = find_extremal(from_name(name), k)
        load_or_compute_extremal(from_name(name), k, str(tmp_path))
        monkeypatch.setattr(Graph, "automorphisms", _refuse)
        for module in (restraints, extremal):
            for fn in ("canonicalize", "parse_restraint"):
                monkeypatch.setattr(module, fn, _refuse, raising=False)
        monkeypatch.setattr(extremal, "find_extremal", no_search)
        read = load_or_compute_extremal(from_name(name), k, str(tmp_path))
        assert read.to_record() == fresh.to_record()
        for side in ("min_classes", "max_classes"):
            assert [c.canon for c in getattr(read, side)] == [c.canon for c in getattr(fresh, side)]

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, c4, monkeypatch):
        # the writer fails after its first piece while replacing a damaged
        # record: the temporary file goes and the damaged one stays as it was
        load_or_compute_extremal(c4, 1, str(tmp_path))
        (path,) = tmp_path.iterdir()
        damaged = path.read_bytes()[:40]
        path.write_bytes(damaged)
        write_json = extremal.write_json

        def first_piece_then_fail(obj, out):
            class Failing:
                pieces = 0

                def write(self, text):
                    if Failing.pieces:
                        raise OSError("disk full")
                    Failing.pieces += 1
                    out.write(text)

            write_json(obj, Failing())

        monkeypatch.setattr(extremal, "write_json", first_piece_then_fail)
        with pytest.raises(OSError, match="disk full"):
            load_or_compute_extremal(c4, 1, str(tmp_path))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == damaged

    def test_record_mode_follows_umask(self, tmp_path, c4):
        # a record gets the mode a plain open() would give it, and the
        # write leaves the umask as it was
        old = os.umask(0o022)
        try:
            load_or_compute_extremal(c4, 1, str(tmp_path / "a"))
            os.umask(0o027)
            load_or_compute_extremal(c4, 1, str(tmp_path / "b"))
            assert os.umask(0o027) == 0o027
        finally:
            os.umask(old)
        (a,) = (tmp_path / "a").iterdir()
        (b,) = (tmp_path / "b").iterdir()
        assert stat.S_IMODE(a.stat().st_mode) == 0o644
        assert stat.S_IMODE(b.stat().st_mode) == 0o640

    def test_store_write_leaves_the_umask_alone(self, tmp_path, c4, monkeypatch):
        # setting the umask to read it would race with files that other
        # threads create meanwhile, so a store write must not call it
        def refuse(mask):
            raise AssertionError("os.umask called during a store write")

        monkeypatch.setattr(os, "umask", refuse)
        report = load_or_compute_extremal(c4, 1, str(tmp_path))
        (path,) = tmp_path.iterdir()
        assert path.name.endswith("_k1.json")
        assert load_or_compute_extremal(c4, 1, str(tmp_path)).class_count == report.class_count


class TestMinTheorem:
    def test_small_catalog_no_violations(self):
        catalog = [g for n in range(1, 5) for g in all_connected_graphs(n)]
        report = verify_min_theorem(catalog, 1)
        assert report.violations == []
        assert all(rec["ok"] for rec in report.records)

    def test_disconnected_skipped(self):
        g = Graph(3, [(0, 1)])
        report = verify_min_theorem([g], 1)
        assert report.records[0]["skipped"] == "not connected"
        assert report.violations == []

    def test_k2_single_edge(self):
        g = Graph(2, [(0, 1)])
        rep = find_extremal(g, 2)
        assert canons(rep.min_classes) == {canonicalize(g, R("[{1,2},{1,2}]")).canon}

    def test_constant_never_maximal_with_edges(self):
        for n in range(2, 6):
            for g in all_connected_graphs(n):
                rep = find_extremal(g, 1)
                constant = canonicalize(g, constant_restraint(g, 1)).canon
                assert constant not in canons(rep.max_classes)


class TestPropernessTheorem:
    def test_small_catalog_no_violations(self):
        catalog = [g for n in range(1, 5) for g in all_connected_graphs(n)]
        report = verify_properness(catalog, 1)
        assert report.violations == []

    def test_complete_graphs_unique_proper_winner(self):
        for n in (3, 4, 5, 6):
            g = complete_graph(n)
            rep = find_extremal(g, 1)
            rainbow = canonicalize(g, R("[" + ",".join("{%d}" % (i + 1) for i in range(n)) + "]"))
            assert canons(rep.max_classes) == {rainbow.canon}
            proper = [c for c in restraint_classes(g, 1) if is_proper(g, c.representative)]
            assert len(proper) == 1


class TestBipartiteTheorem:
    def test_four_cycle_alternating_wins(self, c4):
        report = verify_bipartite_max([c4], 1)
        assert report.violations == []
        assert report.records[0]["expected"] == "[{1},{2},{1},{2}]"

    def test_path_k2(self, p4):
        rep = find_extremal(p4, 2)
        assert canons(rep.max_classes) == {canonicalize(p4, alternating_restraint(p4, 2)).canon}

    def test_catalog_no_violations(self):
        report = verify_bipartite_max(connected_bipartite_catalog(5), 1)
        assert report.violations == []

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            verify_bipartite_max([cycle_graph(3)], 0)

    def test_violation_carries_both_polynomials(self, c4):
        # a search whose max winner is the constant class: the verdict holds
        # the polynomial of that winner, which the full report gives as its
        # min polynomial, and the alternating restraint's
        found = extremal.theorem_search(c4, 1)
        wrong = dataclasses.replace(found, max_classes=(canonicalize(c4, constant_restraint(c4, 1)),))
        _, check = extremal.THEOREMS["bipartite"]
        rec = check(c4, 1, wrong)
        assert rec["ok"] is False
        assert rec["max_classes"] == ["[{1},{1},{1},{1}]"]
        assert rec["max_poly"] == [str(c) for c in find_extremal(c4, 1).min_poly.coeffs]
        assert rec["expected_poly"] == [str(c) for c in restrained_poly(c4, alternating_restraint(c4, 1)).coeffs]

    def test_non_bipartite_skipped(self, c3):
        report = verify_bipartite_max([c3], 1)
        assert report.records[0]["skipped"] == "not bipartite"
        assert report.violations == []
        # a disconnected graph is outside the hypotheses too, not an error
        report = verify_bipartite_max([Graph(3, [(0, 1)])], 1)
        assert report.records[0]["skipped"] == "not connected"
        assert report.violations == []


class TestProperCoefficientAgreement:
    def test_top_three_match_across_proper_classes(self):
        # proper simple restraints on one graph share the three leading
        # values; raw normal-form candidates suffice (no dedup needed)
        from conftest import first_use_forms, restraint_of

        for n in range(3, 7):
            for g in all_connected_graphs(n):
                seen = set()
                for masks in first_use_forms(g.n, 1):
                    r = restraint_of(masks, g.n)
                    if is_proper(g, r):
                        seen.add((coeff_n1(g, r), coeff_n2(g, r)))
                assert len(seen) == 1

    def test_extracted_polynomials_agree_to_third(self, c4):
        polys = [
            restrained_poly(c4, cls.representative)
            for cls in restraint_classes(c4, 1)
            if is_proper(c4, cls.representative)
        ]
        tops = {tuple(p.coefficient(i) for i in (4, 3, 2)) for p in polys}
        assert len(tops) == 1


class TestA7Condition:
    def test_four_cycle(self, c4):
        rec = verify_a7_condition(c4, 1)
        assert rec["ok"]
        assert rec["unique"]
        assert rec["proper_class_count"] == 3
        assert rec["min_term"] == -4
        assert rec["pair_term_min"] == -2
        assert rec["attaining"] == ["[{1},{2},{1},{2}]"]

    def test_seven_cycle_not_pinned_down(self, c7):
        rec = verify_a7_condition(c7, 1)
        assert rec["ok"]
        assert not rec["unique"]
        assert rec["min_term"] == -4
        assert len(rec["attaining"]) == 2
        assert set(rec["max_classes"]) <= set(rec["attaining"])

    def test_single_edge_trivially_minimal(self):
        rec = verify_a7_condition(Graph(2, [(0, 1)]), 1)
        assert rec["ok"]
        assert rec["proper_class_count"] == 1
        assert rec["min_term"] == 0
        rec3 = verify_a7_condition(path_graph(3), 1)
        assert rec3["ok"]


class TestA7Oracle:
    @pytest.mark.parametrize("n_max, k", [(6, 1), (5, 2)])
    def test_matches_parsed_restraints(self, n_max, k, tmp_path):
        catalog = connected_catalog(n_max)
        assert a7_mismatches(catalog, k) == []
        assert a7_mismatches(catalog, k, str(tmp_path)) == []


class TestExpectedClass:
    @staticmethod
    def rotated_labels(g):
        return Graph(g.n, [((u + 1) % g.n, (v + 1) % g.n) for u, v in g.edges])

    @pytest.mark.parametrize("k", [1, 2])
    def test_sorted_masks_are_the_canon(self, k):
        for g in connected_catalog(6):
            assert extremal._expected_class(constant_restraint, g, k) == canonicalize(g, constant_restraint(g, k))
        # the catalog labellings and their rotations, so that the side of
        # vertex 0 has the larger mask on some graphs
        for g in connected_bipartite_catalog(7):
            for h in (g, self.rotated_labels(g)):
                want = canonicalize(h, alternating_restraint(h, k))
                assert extremal._expected_class(alternating_restraint, h, k) == want


class TestTheoremSearch:
    # find_extremal lists, keys and witnesses every class; the theorem search
    # walks only the proper classes, and the min check searches nothing.
    # CI repeats the catalog check over n <= 7 at k = 1 and n <= 6 at k = 2.
    @pytest.mark.parametrize("n_max, k", [(6, 1), (5, 2), (4, 3)])
    def test_matches_the_full_search_over_the_catalog(self, n_max, k):
        assert theorem_search_mismatches(connected_catalog(n_max), k) == []

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_the_full_search_on_every_small_labelled_graph(self, k):
        # edgeless and disconnected graphs included: on E3 every class is
        # proper
        assert theorem_search_mismatches(labelled_graphs(4), k) == []

    def test_polynomials_only_to_break_a_tie(self, monkeypatch):
        # a max side whose best key one class ties has that class as its
        # winner, so its polynomial is not computed; Dy_ has three proper
        # classes tied on the max key at k = 1, and C{ two at k = 2 (both
        # win), while the min side is the constant class, with no search
        calls = []
        real = extremal.restrained_poly

        def counting(g, r, **kwargs):
            calls.append(to_graph6(g))
            return real(g, r, **kwargs)

        monkeypatch.setattr(extremal, "restrained_poly", counting)
        for name in ("C4", "P4", "C6", "K2,3"):
            extremal.theorem_search(from_name(name), 1)
        assert calls == []
        extremal.theorem_search(parse_graph6("Dy_"), 1)
        assert len(calls) == 3
        extremal.theorem_search(parse_graph6("C{"), 2)
        assert len(calls) == 5
        calls.clear()
        extremal._SEARCHES.clear()
        reports = extremal.verify_theorems(("min", "proper", "bipartite", "a7"), connected_catalog(5), 1)
        assert all(report.violations == [] for report in reports.values())
        assert len(calls) == 3

    def test_both_searches_break_ties_through_one_function(self, monkeypatch):
        # on Dy_ at k = 1 three proper classes tie the best key and one class
        # the worst: the full search breaks both sides' ties in _tie_break,
        # and the theorem search only the max side's, the one it searches
        calls = []
        real = extremal._tie_break

        def counting(tied, extreme, poly):
            calls.append((len(tied), extreme))
            return real(tied, extreme, poly)

        monkeypatch.setattr(extremal, "_tie_break", counting)
        dy = parse_graph6("Dy_")
        full = find_extremal(dy, 1)
        assert calls == [(3, max), (1, min)]
        calls.clear()
        found = extremal.theorem_search(dy, 1)
        assert calls == [(3, max)]
        assert found.max_classes == full.max_classes

    def test_refused_as_the_full_search_is(self):
        with pytest.raises(CapError) as full:
            find_extremal(cycle_graph(13), 1)
        with pytest.raises(CapError) as found:
            extremal.theorem_search(cycle_graph(13), 1)
        assert str(found.value) == str(full.value)

    def test_both_searches_list_through_one_function(self, monkeypatch, c4):
        # wrapped where the bench tracer wraps it: the full search lists
        # every class in one unfiltered call, and the theorem search makes
        # its one walk through it, filtered to the proper classes
        calls = []
        real = extremal.enumerate_k_restraints

        def counting(g, k, avoid=None):
            calls.append(avoid)
            return real(g, k, avoid)

        monkeypatch.setattr(extremal, "enumerate_k_restraints", counting)
        find_extremal(c4, 1)
        assert calls == [None]
        calls.clear()
        found = extremal.theorem_search(c4, 1)
        assert calls == [(10, 5, 10, 5)]
        assert len(found.proper) == 3


class TestTieBreakOracle:
    # every side on which two or more classes tie the extreme key, re-decided
    # from the subgraph expansion: both sides of find_extremal and the max
    # side of theorem_search.  CI repeats it over n <= 7 at k = 1, n <= 6 at
    # k = 2 and C11 at k = 1
    @pytest.mark.parametrize("n_max, k, tied_sides", [(6, 1, 15), (5, 2, 9)])
    def test_catalog_ties(self, n_max, k, tied_sides):
        assert tie_break_mismatches(connected_catalog(n_max), k) == (tied_sides, [])

    def test_nine_cycle_tie(self):
        assert tie_break_mismatches([cycle_graph(9)], 1) == (1, [])


class TestNoReferenceCycles:
    def test_pipeline_leaves_nothing_for_the_cyclic_collector(self):
        # a recursion through its own closure cell (the isomorphism search's,
        # the orbit rows') would keep the rows cache, up to |Aut| ints per
        # mask, and whatever a search held alive until a full collection;
        # the brute-force counter's recursion would hold itself the same way
        k34, c6, c5 = from_name("K3,4"), cycle_graph(6), cycle_graph(5)
        calls = [
            lambda: count_colourings(c5, constant_restraint(c5, 1), 3),
            lambda: from_name("K3,4").automorphisms(),
            lambda: enumerate_k_restraints(k34, 1),
            lambda: find_extremal(c6, 1),
            lambda: extremal.theorem_search(c6, 2),
        ]
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestSearchMemo:
    @staticmethod
    def counted(monkeypatch) -> list:
        """Record (graph6, k) of every search the theorem checks make."""
        calls = []
        real = extremal.theorem_search

        def counting(g, k):
            calls.append((to_graph6(g), k))
            return real(g, k)

        monkeypatch.setattr(extremal, "theorem_search", counting)
        return calls

    def test_theorems_share_one_search_per_graph(self, monkeypatch):
        calls = self.counted(monkeypatch)
        catalog = connected_catalog(5)
        for verify in (verify_min_theorem, verify_properness, verify_bipartite_max):
            assert verify(catalog, 1).violations == []
        assert all(verify_a7_condition(g, 1)["ok"] for g in catalog)
        assert sorted(calls) == sorted((to_graph6(g), 1) for g in catalog)

    def test_report_above_the_bound_is_not_kept(self, monkeypatch, c4, c7):
        bound = len(extremal.theorem_search(c4, 1).proper)
        monkeypatch.setattr(extremal, "SEARCH_MEMO_CLASSES", bound)
        calls = self.counted(monkeypatch)
        verify_a7_condition(c4, 1)
        first = verify_a7_condition(c7, 1)
        assert verify_a7_condition(c7, 1) == first
        assert len(calls) == 3
        # nor does it empty the memo of the searches that fit
        assert list(extremal._SEARCHES) == [(to_graph6(c4), 1)]
        verify_a7_condition(c4, 1)
        assert len(calls) == 3

    def test_eviction_keeps_the_held_classes_within_the_bound(self, monkeypatch):
        c4, c5, c6 = (cycle_graph(n) for n in (4, 5, 6))
        size = {g: len(extremal.theorem_search(g, 1).proper) for g in (c4, c5, c6)}
        bound = size[c5] + size[c6]
        assert size[c4] + size[c5] <= bound < sum(size.values())
        monkeypatch.setattr(extremal, "SEARCH_MEMO_CLASSES", bound)
        calls = self.counted(monkeypatch)
        # each call, then the graphs held after it and the searches made so
        # far: a miss that would pass the bound empties the memo first
        steps = [(c5, [c5], 1), (c6, [c5, c6], 2), (c5, [c5, c6], 2), (c4, [c4], 3),
                 (c5, [c4, c5], 4), (c4, [c4, c5], 4), (c6, [c6], 5)]
        for g, held, searched in steps:
            verify_properness([g], 1)
            assert sum(len(found.proper) for found in extremal._SEARCHES.values()) <= bound
            assert list(extremal._SEARCHES) == [(to_graph6(h), 1) for h in held]
            assert len(calls) == searched

    def test_store_runs_and_refused_searches_leave_it_empty(self, monkeypatch, tmp_path, c4):
        # a store run is an extremal run, which reads or writes full records
        load_or_compute_extremal(c4, 1, str(tmp_path))
        load_or_compute_extremal(c4, 1, str(tmp_path))
        assert extremal._SEARCHES == {}
        monkeypatch.setattr(restraints, "FORMS_BUDGET", 1)
        with pytest.raises(CapError):
            verify_a7_condition(c4, 1)
        assert extremal._SEARCHES == {}

    def test_extremal_and_conjecture_leave_it_empty(self, c4):
        find_extremal(c4, 1)
        check_conjecture(5)
        assert extremal._SEARCHES == {}


class TestConjecture:
    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            check_conjecture(4)
        with pytest.raises(ValueError):
            conjectured_odd_cycle_restraint(4)

    def test_n7_pattern_matches_search(self):
        rec = check_conjecture(7)
        assert rec["pattern_total"]
        assert rec["conjectured"] == "[{1},{2},{1},{3},{2},{3},{2}]"
        assert rec["matches"] is True
        # and the winner is the expected reference class
        c7 = cycle_graph(7)
        target = canonicalize(c7, R("[{1},{2},{1},{2},{3},{1},{3}]"))
        assert rec["winners"] == [target.class_id()]

    def test_n5_pattern_has_gaps_but_reports(self):
        rec = check_conjecture(5)
        assert rec["pattern_total"] is False
        assert rec["uncovered_indices"] == [2, 5]
        assert rec["matches"] is None
        assert rec["winners"]
        assert rec["class_count"] > 0

    def test_n9_runs(self):
        star, uncovered = conjectured_odd_cycle_restraint(9)
        # index cases leave gaps whenever n % 4 == 1
        assert star is None
        assert uncovered == [4, 9]

    def test_n11_total(self):
        star, uncovered = conjectured_odd_cycle_restraint(11)
        assert uncovered == []
        assert star is not None
        assert star.sizes() == (1,) * 11 and star.m_value() <= 11
