import argparse
import errno
import hashlib
import io
import json
import os
import sys
import time
import tracemalloc

import pytest

from restchroma import (
    IntPolynomial, RestraintClass, connected_catalog, enumerate_k_restraints, find_extremal, from_name, is_proper,
    load_graph, to_graph6,
)
from restchroma import extremal as extremal_module
from restchroma.cli import _emit, main
from restchroma.extremal import JSON_CHUNK, THEOREMS, verify_theorems, write_json
from restchroma.graphs import quote_input
from conftest import no_search


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_store_edit_recomputed(capsys, tmp_path, graph, edit):
    """Store graph's extremal record at k = 1, apply edit to the record line
    of the file and keep its trailer line as written: a store run must then
    print the bytes of a run without a store, and rewrite the file as those
    bytes and the same trailer."""
    args = ("extremal", "--graph", graph, "--k", "1", "--json")
    _, fresh, _ = run(capsys, *args)
    run(capsys, *args, "--results-dir", str(tmp_path))
    (path,) = tmp_path.iterdir()
    record, trailer = path.read_text().split("\n", 1)
    path.write_text(f"{edit(record)}\n{trailer}")
    code, out, _ = run(capsys, *args, "--results-dir", str(tmp_path))
    assert (code, out) == (0, fresh)
    assert path.read_text() == fresh + trailer


def edited(change):
    """An edit of a record's text that parses it, lets change alter the
    record in place, and writes it back as the store writes it."""
    def edit(text):
        record = json.loads(text)
        change(record)
        return json.dumps(record, sort_keys=True)
    return edit


def renamed_keys(renames):
    """An edit that renames witness keys on both sides, old -> new."""
    def change(record):
        for side in ("min_witness", "max_witness"):
            for old, new in renames.items():
                record[side][new] = record[side].pop(old)
    return edited(change)


class TestPoly:
    def test_rainbow_triangle_with_evaluations(self, capsys):
        code, out, _ = run(capsys, "poly", "--graph", "C3", "--restraint", "[{1},{2},{3}]")
        assert code == 0
        assert "x^3 - 6x^2 + 14x - 13" in out
        for x, value in [(4, 11), (5, 32), (6, 71)]:
            code, out, _ = run(capsys, "poly", "--graph", "C3",
                               "--restraint", "[{1},{2},{3}]", "--x", str(x))
            assert code == 0
            assert f"value at x={x}: {value}" in out

    def test_path_vector(self, capsys):
        code, out, _ = run(capsys, "poly", "--graph", "P4", "--restraint", "[{1},{2},{2},{1}]")
        assert code == 0
        assert "[16, -28, 20, -7, 1]" in out

    def test_empty_restraint_gives_chromatic(self, capsys):
        code, out, _ = run(capsys, "poly", "--graph", "K3")
        assert code == 0
        assert "x^3 - 3x^2 + 2x" in out

    def test_validity_note_below_threshold(self, capsys):
        code, out, _ = run(capsys, "poly", "--graph", "C3",
                           "--restraint", "[{1},{2},{3}]", "--x", "2")
        assert code == 0
        assert "x >= 3" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "poly", "--graph", "C3",
                           "--restraint", "[{1},{2},{3}]", "--json")
        assert code == 0
        obj = json.loads(out)
        rebuilt = IntPolynomial(int(s) for s in obj["coeffs"])
        assert str(rebuilt) == obj["polynomial"]

    def test_graph6_inline(self, capsys):
        code, out, _ = run(capsys, "poly", "--graph", "Cl", "--restraint", "[{1},{2},{1},{2}]")
        assert code == 0
        assert "[31, -47, 28, -8, 1]" in out

    def test_edgelist_file(self, capsys, tmp_path):
        path = tmp_path / "square.edges"
        path.write_text("n 4\n0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run(capsys, "poly", "--graph", str(path), "--restraint", "[{1},{2},{1},{2}]")
        assert code == 0
        assert "[31, -47, 28, -8, 1]" in out

    def test_edgelist_with_tab_header(self, capsys):
        # any whitespace marks an edge list, not only a space after 'n'
        code, out, _ = run(capsys, "poly", "--graph", "n\t2", "--json")
        assert code == 0
        assert json.loads(out)["polynomial"] == "x^2"

    def test_restraint_file(self, capsys, tmp_path):
        path = tmp_path / "restraint.txt"
        path.write_text("[{1},{2},{3}]\n")
        code, out, _ = run(capsys, "poly", "--graph", "C3", "--restraint", str(path))
        assert code == 0
        assert "x^3 - 6x^2 + 14x - 13" in out


class TestCount:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "--graph", "C3",
                           "--restraint", "[{1},{1},{1}]", "--x", "4")
        assert code == 0
        assert "6" in out

    def test_requires_x(self, capsys):
        code, out, err = run(capsys, "count", "--graph", "C4")
        assert (code, out, err) == (2, "", "error: count requires --x\n")


class TestCoeffs:
    def test_breakdown(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--graph", "C4", "--restraint", "[{1},{2},{1},{2}]")
        assert code == 0
        assert "a[n-1] = 8" in out
        assert "a[n-2] = 28" in out
        assert "a[n-3] = 47" in out
        assert "A7''=-4" in out
        assert "pair overlap: -2" in out

    def test_single_vertex_has_only_a_n_1(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--graph", "K1", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["a_n_1"] == 0
        assert "a_n_2" not in obj and "a_n_3" not in obj

    def test_no_vertices_has_no_coefficients(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--graph", "E0", "--json")
        assert code == 0
        obj = json.loads(out)
        assert not {"a_n_1", "a_n_2", "a_n_3"} & set(obj)


class TestClasses:
    def test_seven_classes_in_order(self, capsys):
        code, out, _ = run(capsys, "classes", "--graph", "C4", "--k", "1")
        assert code == 0
        assert "7 classes" in out
        code, out, _ = run(capsys, "classes", "--graph", "C4", "--k", "1", "--json")
        obj = json.loads(out)
        assert obj["count"] == 7
        assert sum(1 for e in obj["classes"] if e["proper"]) == 3

    @pytest.mark.parametrize("graph, k, digest", [
        ("C6", "1", "8ada143e903f11b673bed46254026fbb5bd4f5f6aa9bab6c75332b5977c8a91f"),
        ("P8", "1", "70ac80c696477ab9b60480e19d025bb1df09b9dcad1d7bb2c3d44d4afb581339"),
        ("C5", "2", "59dc9ab5f2a26438ee0ea1fbf5f016e3936ad1245b5b1beeaec681e829bf04e8"),
    ])
    def test_json_pinned(self, capsys, graph, k, digest):
        # sha256 of the whole --json output, class ids and properness included
        code, out, _ = run(capsys, "classes", "--graph", graph, "--k", k, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_proper_flags_match_is_proper(self, capsys):
        # classes reads each flag from dominance_key (proper exactly when
        # I2 is 0); the oracle tests each class's representative edge by
        # edge.  FPpC? has a trivial group, n 3 no edges and E0 no vertices
        cases = [(to_graph6(g), 1) for g in connected_catalog(5)] + [(to_graph6(g), 2) for g in connected_catalog(4)]
        cases += [("K3,4", 1), ("FPpC?", 1), ("n 3", 2), ("E0", 1)]
        for graph, k in cases:
            code, out, _ = run(capsys, "classes", "--graph", graph, "--k", str(k), "--json")
            g = load_graph(graph)
            classes = [RestraintClass(canon, g.n) for canon in enumerate_k_restraints(g, k)]
            want = [{"restraint": c.class_id(), "proper": is_proper(g, c.representative)} for c in classes]
            assert (code, json.loads(out)["classes"]) == (0, want), (graph, k)

    def test_cap_exit_code(self, capsys):
        # C4 at k=6 has 92,022,204 normal forms: refused before any sweep
        start = time.perf_counter()
        code, _, err = run(capsys, "classes", "--graph", "C4", "--k", "6")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "normal-form budget" in err
        code, _, err = run(capsys, "classes", "--graph", "C13", "--k", "1")
        assert code == 3 and "normal-form budget" in err
        # K11's Bell(11) forms pass, its 39,916,800 automorphisms do not
        code, _, err = run(capsys, "extremal", "--graph", "K11", "--k", "1")
        assert code == 3 and "automorphism budget" in err


class TestExtremal:
    def test_four_cycle(self, capsys):
        code, out, _ = run(capsys, "extremal", "--graph", "C4", "--k", "1")
        assert code == 0
        assert "max: [{1},{2},{1},{2}]" in out
        assert "min: [{1},{1},{1},{1}]" in out

    @pytest.mark.parametrize("graph, k, digest", [
        ("C4", "1", "f1ca59e634794b559e3fb6925b21b0359d3a8a76289ec2481861db7cf58b8c67"),
        ("n 3", "2", "11efaff242f415d2acc51daf84fd2bf3c694c2c5fb53da5b7e68f852a5e32a10"),
    ])
    def test_text_pinned(self, capsys, graph, k, digest):
        # sha256 of the whole plain output; on the edgeless "n 3" at k = 2
        # all 8 classes win on both sides
        code, out, _ = run(capsys, "extremal", "--graph", graph, "--k", k)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("graph, k, renders", [("K1", "3", 3), ("C4", "1", 9)])
    def test_each_id_rendered_once_per_use(self, capsys, monkeypatch, graph, k, renders):
        # the witness loop renders every class's id and to_record every
        # winner's once; the text lines reuse the record's ids, so --json
        # renders no id for output it discards
        calls = []
        real = RestraintClass.class_id
        monkeypatch.setattr(RestraintClass, "class_id", lambda self: calls.append(self.canon) or real(self))
        code, _, _ = run(capsys, "extremal", "--graph", graph, "--k", k, "--json")
        assert code == 0
        assert len(calls) == renders

    def test_results_dir(self, capsys, tmp_path):
        code, out1, _ = run(capsys, "extremal", "--graph", "C4", "--k", "1",
                            "--results-dir", str(tmp_path), "--json")
        assert code == 0
        assert len(list(tmp_path.iterdir())) == 1
        code, out2, _ = run(capsys, "extremal", "--graph", "C4", "--k", "1",
                            "--results-dir", str(tmp_path), "--json")
        assert out1 == out2

    def test_results_dir_recovers_truncated_record(self, capsys, tmp_path):
        assert_store_edit_recomputed(capsys, tmp_path, "C4", lambda text: text[:40])

    def test_renamed_witness_is_recomputed(self, capsys, tmp_path):
        # one max witness key of C4 renamed to "not a class" on that side only
        def rename(record):
            record["max_witness"]["not a class"] = record["max_witness"].pop(min(record["max_witness"]))
        assert_store_edit_recomputed(capsys, tmp_path, "C4", edited(rename))

    def test_witness_degree_that_is_not_an_int_is_recomputed(self, capsys, tmp_path):
        def degree_x(record):
            record["max_witness"][min(record["max_witness"])][0] = "x"
        assert_store_edit_recomputed(capsys, tmp_path, "C5", edited(degree_x))

    def test_proper_key_that_is_not_a_class_id_is_recomputed(self, capsys, tmp_path):
        # C5's rainbow class, renamed to an id of [{1},{2},{1},{2},{3}]'s
        # class in other colour labels
        renamed = renamed_keys({"[{1},{2},{3},{4},{5}]": "[{1},{3},{1},{3},{2}]"})
        assert_store_edit_recomputed(capsys, tmp_path, "C5", renamed)

    def test_improper_key_renamed_to_another_class_id_is_recomputed(self, capsys, tmp_path):
        renamed = renamed_keys({"[{1},{1},{2},{2},{2}]": "[{2},{2},{1},{1},{1}]"})
        assert_store_edit_recomputed(capsys, tmp_path, "C5", renamed)

    def test_malformed_keys_whose_separators_balance_are_recomputed(self, capsys, tmp_path):
        # one vertex set dropped from one key and added to another
        renamed = renamed_keys({"[{1},{2},{3},{3},{3}]": "[{1},{2},{3},{3}]",
                                "[{1},{2},{2},{2},{2}]": "[{1},{2},{2},{2},{2},{2}]"})
        assert_store_edit_recomputed(capsys, tmp_path, "C5", renamed)

    def test_record_path_that_is_a_directory_rejected(self, capsys, tmp_path, monkeypatch):
        # a directory where C4's record would be is refused with one error
        # line naming it, before any search (not read as a corrupt record and
        # recomputed), and is left as it is
        monkeypatch.setattr(extremal_module, "find_extremal", no_search)
        monkeypatch.chdir(tmp_path)
        record = tmp_path / "D" / "436c_k1.json"
        record.mkdir(parents=True)
        code, out, err = run(capsys, "extremal", "--graph", "C4", "--results-dir", "D", "--json")
        assert (code, out) == (2, "")
        assert err == "error: results store 'D/436c_k1.json': Is a directory\n"
        assert list(record.parent.iterdir()) == [record] and list(record.iterdir()) == []

    @pytest.mark.parametrize("results_dir, refused, reason", [
        ("F", "F/436c_k1.json", os.strerror(errno.ENOTDIR)),
        ("F/sub", "F/sub/436c_k1.json", os.strerror(errno.ENOTDIR)),
        ("D", "D/436c_k1.json", os.strerror(errno.EISDIR)),
        ("loop", "loop/436c_k1.json", os.strerror(errno.ELOOP)),
        ("dangling", "dangling", "Symbolic link to a missing target"),
        ("x" * 300, "x" * 300 + "/436c_k1.json", os.strerror(errno.ENAMETOOLONG)),
    ], ids=["file", "under-a-file", "record-is-a-directory", "symlink-loop", "dangling-symlink", "long-name"])
    def test_unusable_results_dir_refused(self, capsys, tmp_path, monkeypatch, results_dir, refused, reason):
        # every store location that cannot hold C4's record is refused by
        # the store itself, before any search, with one error line that
        # names the path and the OS reason, and nothing is made or changed
        monkeypatch.setattr(extremal_module, "find_extremal", no_search)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F").write_text("not a store\n")
        (tmp_path / "D" / "436c_k1.json").mkdir(parents=True)
        os.symlink("loop", "loop")
        os.symlink("nowhere", "dangling")

        def tree():
            paths = [os.path.join(top, name) for top, dirs, files in os.walk(".") for name in dirs + files]
            return sorted((p, os.readlink(p) if os.path.islink(p) else os.path.isdir(p)) for p in paths)

        before = tree()
        code, out, err = run(capsys, "extremal", "--graph", "C4", "--json", "--results-dir", results_dir)
        assert (code, out) == (2, "")
        assert err == f"error: results store {quote_input(refused)}: {reason}\n"
        assert tree() == before and (tmp_path / "F").read_text() == "not a store\n"

    def test_stored_record_is_the_json_output(self, capsys, tmp_path):
        # C8's witness maps are longer than JSON_CHUNK, so the record is
        # written in several pieces; the file is those bytes, then the
        # trailer line of their SHA-256
        args = ("extremal", "--graph", "C8", "--k", "1", "--json")
        _, fresh, _ = run(capsys, *args)
        _, computed, _ = run(capsys, *args, "--results-dir", str(tmp_path))
        (path,) = tmp_path.iterdir()
        assert len(json.loads(fresh)["max_witness"]) > JSON_CHUNK
        record = fresh.encode("ascii")
        trailer = f"restchroma-store 1 sha256:{hashlib.sha256(record).hexdigest()}\n".encode("ascii")
        assert computed == fresh and path.read_bytes() == record + trailer

    def test_json_is_streamed(self, monkeypatch):
        # C10 at k=1 makes a 0.7 MB record; written to an output that keeps
        # only a running hash, the bytes match the one-string dump (whose
        # peak is 4.3 MB) while the peak of new allocations stays below two
        # thirds of the document's length: what remains is the sorted keys
        # of one 6,350-entry witness map and one piece of JSON_CHUNK
        # entries, some 0.16 MB
        obj = find_extremal(from_name("C10"), 1).to_record()
        document = (json.dumps(obj, sort_keys=True) + "\n").encode("ascii")
        digest = hashlib.sha256()

        class Discard:
            written = 0

            def write(self, text):
                digest.update(text.encode("ascii"))
                Discard.written += len(text)

        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            _emit(argparse.Namespace(json=True), obj, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(document) > 500_000
        assert Discard.written == len(document) and digest.hexdigest() == hashlib.sha256(document).hexdigest()
        assert peak < len(document) * 2 // 3, (peak, len(document))

    def test_json_pieces_match_one_dump(self):
        # the chunked writer against one json.dumps: empty and scalar
        # values, unsorted nested keys, and containers a few items past a
        # multiple of JSON_CHUNK
        many = JSON_CHUNK * 2 + 3
        objects = [
            {},
            {"b": [], "a": {}, "c": None, "d": "x\u00e9\"", "e": 1.5},
            {"z": [{"y": 1, "x": [2, {"w": 3, "v": 4}]}], "y": {"b": {"d": 1, "c": 2}, "a": [True]}},
            {"map": {f"k{i:05d}": [i, str(-i)] for i in reversed(range(many))}, "list": list(range(many))},
            {"map": {f"k{i}": i for i in range(JSON_CHUNK)}, "list": list(range(JSON_CHUNK))},
        ]
        for obj in objects:
            out = io.StringIO()
            write_json(obj, out)
            assert out.getvalue() == json.dumps(obj, sort_keys=True) + "\n"


class TestVerify:
    def test_min_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "min", "--n-max", "4", "--k", "1")
        assert code == 0
        assert "0 violations" in out

    @pytest.mark.parametrize("args, digest", [
        (("--n-max", "6", "--k", "1"), "71556f95a7514a60137d53e99f7303ce7b7ef2fe8d687bbf86c1728b67f40fec"),
        (("--n-max", "5", "--k", "2"), "f5cc83d71c69dd65e8d83da451e740f45c3ca9abe8cf9285ff16b65ec43f39b5"),
        # P3 + K2, disconnected, so min and bipartite skip it
        (("--graph", "DgC", "--k", "2"), "ac721a9a49906231b599d3b05e492cd528d4a3f7c453e6a6b3dff72daa314756"),
    ])
    def test_json_pinned(self, capsys, args, digest):
        # sha256 of the whole --json output of every theorem
        code, out, _ = run(capsys, "verify", "--theorem", "all", *args, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_a7_single_graph(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "a7", "--graph", "C4", "--k", "1")
        assert code == 0
        assert "0 violations" in out

    def test_min_refused_at_large_k(self, capsys):
        # the min record reads no search, but the forms budget must still
        # refuse the run: its class id, k labels per vertex, would take time
        # quadratic in k to render
        code, out, err = run(capsys, "verify", "--theorem", "min", "--graph", "C4", "--k", "300")
        assert (code, out) == (3, "")
        assert "normal-form budget exceeded" in err and "n=4, k=300" in err

    def test_graph_flag_checks_one_graph(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "min", "--graph", "C4", "--json")
        assert code == 0
        obj = json.loads(out)
        assert [rec["graph6"] for rec in obj["records"]] == ["Cl"]

    def test_violation_exit_code(self, capsys, monkeypatch):
        # force the reporting path; real catalogs never violate the theorems
        from restchroma import VerifyReport
        from restchroma import cli as cli_module

        def fake(theorems, catalog, k):
            rec = {"graph6": "Cl", "k": k, "ok": False}
            return {theorem: VerifyReport(theorem=theorem, records=[rec]) for theorem in theorems}

        monkeypatch.setattr(cli_module, "verify_theorems", fake)
        code, out, _ = run(capsys, "verify", "--theorem", "min", "--n-max", "3")
        assert code == 4
        assert "violation" in out

    def test_empty_results_dir_is_no_store(self, capsys, tmp_path, monkeypatch):
        # extremal reads an empty --results-dir as none: nothing is written,
        # and the output is the storeless one
        monkeypatch.chdir(tmp_path)
        args = ("extremal", "--graph", "C4", "--json")
        _, fresh, _ = run(capsys, *args)
        code, out, _ = run(capsys, *args, "--results-dir", "")
        assert (code, out) == (0, fresh)
        assert list(tmp_path.iterdir()) == []

    def test_results_dir_is_not_a_verify_option(self, capsys, tmp_path):
        # the theorem checks read only the theorem search: argparse refuses
        # the option before anything runs, and no store is made
        store = tmp_path / "D"
        with pytest.raises(SystemExit) as refused:
            main(["verify", "--theorem", "min", "--graph", "C4", "--results-dir", str(store)])
        assert refused.value.code == 2
        assert "unrecognized arguments: --results-dir" in capsys.readouterr().err
        assert not store.exists()

    def test_winner_replaced_by_a_witness_is_recomputed(self, capsys, tmp_path):
        # C4's max winner replaced by the valid id of a max witness
        def replace(record):
            record["max_classes"] = ["[{1},{1},{2},{2}]"]
        assert_store_edit_recomputed(capsys, tmp_path, "C4", edited(replace))

    def test_extremal_recomputes_an_improper_key_that_is_not_a_class_id(self, capsys, tmp_path):
        renamed = renamed_keys({"[{1},{1},{2},{2},{2}]": "not a class"})
        assert_store_edit_recomputed(capsys, tmp_path, "C5", renamed)

    def test_theorems_share_one_search_per_graph(self, capsys, monkeypatch):
        searched = []
        real = extremal_module.theorem_search
        monkeypatch.setattr(extremal_module, "theorem_search", lambda g, k: searched.append(to_graph6(g)) or real(g, k))
        for theorem in ("min", "proper", "a7", "bipartite"):
            code, _, _ = run(capsys, "verify", "--theorem", theorem, "--n-max", "4", "--k", "2", "--json")
            assert code == 0
        assert sorted(searched) == sorted(to_graph6(g) for g in connected_catalog(4))

    def test_all_theorems_share_one_search_per_graph(self, capsys, monkeypatch):
        searched = []
        real = extremal_module.theorem_search
        monkeypatch.setattr(extremal_module, "theorem_search", lambda g, k: searched.append(to_graph6(g)) or real(g, k))
        code, out, _ = run(capsys, "verify", "--theorem", "all", "--n-max", "5", "--k", "1", "--json")
        assert code == 0
        catalog = connected_catalog(5)
        assert sorted(searched) == sorted(to_graph6(g) for g in catalog)
        obj = json.loads(out)
        assert (obj["theorem"], obj["k"], obj["violations"]) == ("all", 1, 0)
        assert list(obj["theorems"]) == sorted(THEOREMS)
        for theorem in THEOREMS:
            report = verify_theorems((theorem,), catalog, 1)[theorem]
            assert obj["theorems"][theorem] == {"records": report.records, "violations": len(report.violations)}

    def test_all_prints_a_summary_per_theorem(self, capsys, monkeypatch):
        def failing(g, k, found):
            return {"ok": False}

        code, out, _ = run(capsys, "verify", "--theorem", "all", "--graph", "C4")
        assert code == 0
        assert out.splitlines() == [f"{name}: 1 graphs checked, 0 violations" for name in THEOREMS]
        monkeypatch.setitem(THEOREMS, "proper", ((), failing))
        code, out, _ = run(capsys, "verify", "--theorem", "all", "--graph", "C4")
        assert code == 4
        assert "proper: 1 graphs checked, 1 violations" in out.splitlines()
        assert 'violation: {"graph6": "Cl", "k": 1, "ok": false}' in out.splitlines()

    def test_summary_counts_no_skipped_graph(self, capsys):
        # 4 of the 10 connected graphs on at most 4 vertices are not bipartite
        code, out, _ = run(capsys, "verify", "--theorem", "all", "--n-max", "4")
        assert code == 0
        counts = {"min": 10, "proper": 10, "bipartite": 6, "a7": 10}
        assert out.splitlines() == [f"{name}: {counts[name]} graphs checked, 0 violations" for name in THEOREMS]

    def test_summary_of_a_skipped_graph(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "min", "--graph", "n 3; 0 1")
        assert code == 0
        assert out.splitlines() == ["min: 0 graphs checked, 0 violations"]

    def test_bipartite_disconnected_graph_skipped(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "bipartite", "--graph", "n 3; 0 1", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["violations"] == 0
        assert [rec["skipped"] for rec in obj["records"]] == ["not connected"]

    def test_k_below_one_rejected(self, capsys):
        # refused before the graph is found outside the theorem's hypotheses
        code, out, err = run(capsys, "verify", "--theorem", "bipartite", "--graph", "C3", "--k", "0")
        assert code == 2
        assert out == ""
        assert "k must be at least 1" in err

    def test_results_dir_that_is_a_file_rejected(self, capsys, tmp_path, monkeypatch):
        # a store that names a regular file, or a directory under one, is
        # refused with one error line, before any search; a missing
        # directory is still made by the first store write
        monkeypatch.setattr(extremal_module, "find_extremal", no_search)
        monkeypatch.chdir(tmp_path)
        plain = tmp_path / "F"
        plain.write_text("not a store\n")
        args = ("extremal", "--graph", "C4", "--json")
        for results_dir in ("F", "F/sub"):
            code, out, err = run(capsys, *args, "--results-dir", results_dir)
            assert (code, out) == (2, "")
            assert err == f"error: results store '{results_dir}/436c_k1.json': Not a directory\n"
        assert plain.read_text() == "not a store\n"
        monkeypatch.undo()
        missing = tmp_path / "extremal" / "sub"
        code, _, _ = run(capsys, *args, "--results-dir", str(missing))
        assert code == 0
        assert len(list(missing.iterdir())) == 1

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_empty_catalog_rejected(self, capsys, n_max):
        for theorem in ("min", "bipartite"):
            code, out, err = run(capsys, "verify", "--theorem", theorem, "--n-max", n_max)
            assert code == 2
            assert out == ""
            assert "n_max" in err


class TestConjecture:
    def test_n7(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--n", "7")
        assert code == 0
        assert "winner matches conjectured class: True" in out

    def test_n5_reports_gaps(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--n", "5")
        assert code == 0
        assert "unassigned" in out

    def test_even_rejected(self, capsys):
        code, _, err = run(capsys, "conjecture", "--n", "4")
        assert code == 2
        assert "odd" in err


class TestErrorsAndDeterminism:
    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "poly", "--graph", "not a graph (")
        assert code == 2
        assert "error" in err

    def test_bad_restraint_exit_code(self, capsys):
        for bad in ["[{1}]", "[[1.5],[2],[3]]", "[[[1]],[2],[3]]"]:
            code, _, err = run(capsys, "poly", "--graph", "C3", "--restraint", bad)
            assert code == 2
            assert err.startswith("error:") and "Traceback" not in err

    def test_long_input_gives_short_error(self, capsys, tmp_path):
        # each message quotes the start of its 100,000-character input
        edges = tmp_path / "long.txt"
        edges.write_text("n 3\n0 1\n" + "12 " * 33_333 + "1\n")
        for args, start in [
            (("--graph", "P3", "--restraint", ("[{1}," + "{2}," * 25_000)[:100_000]), "'[{1},{2},"),
            (("--graph", str(edges)), "'12 12 12 "),
        ]:
            code, _, err = run(capsys, "poly", *args)
            assert code == 2
            assert err.startswith("error:") and start in err and len(err.encode()) < 300

    def test_byte_identical_output(self, capsys):
        args = ("extremal", "--graph", "C4", "--k", "1", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
