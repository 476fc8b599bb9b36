import argparse
import copy
import json
import os
from fractions import Fraction

import pytest

from matchcover import bipartite, cli, ramsey
from matchcover.cli import build_parser, dispatch
from matchcover import serialize as ser
from matchcover.cover import Covering, GroundSet
from matchcover.folner import Coloring, build_certificate
from matchcover.groups import FreeGroup, GroupError, IntegerLattice, cyclic_group
from matchcover.means import uniform
from matchcover.ramsey import FinMetric

from lemmas import action_from_json, graph_to_json, rotation_action


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def covering_file(tmp_path):
    return write(
        tmp_path / "cover.json",
        {"ground": ["a", "b", "c", "d"], "blocks": [["a", "b"], ["b", "c"], ["c", "d"]]},
    )


class TestRoundTrips:
    def test_covering(self):
        cov = Covering(GroundSet(["a", "b"]), [["a"], ["a", "b"]])
        assert ser.covering_from_json(ser.covering_to_json(cov)) == cov

    def test_covering_with_group_atoms(self):
        z = IntegerLattice(1)
        cov = Covering(GroundSet([(0,), (1,)]), [[(0,), (1,)]])
        doc = ser.covering_to_json(cov, z)
        assert ser.covering_from_json(doc, z) == cov

    def test_graph_and_witness(self):
        from matchcover.bipartite import BipartiteGraph, MatchingWitness

        g = BipartiteGraph(("x", "y"), ("u",), frozenset({(0, 0)}))
        assert ser.graph_from_json(graph_to_json(g)) == g
        w = MatchingWitness(((0, 0),))
        assert ser.witness_from_json(ser.witness_to_json(w)) == w

    def test_mean(self):
        f2 = FreeGroup(2)
        nu = uniform(f2, [(), (1,), (2, -1)])
        assert ser.mean_from_json(ser.mean_to_json(nu), f2) == nu

    def test_finmetric(self):
        m = FinMetric.build(["p", "q"], [["0", "1/2"], ["1/2", "0"]])
        assert ser.finmetric_from_json(ser.finmetric_to_json(m)) == m

    def test_finmetric_parses_each_distance_once(self, monkeypatch):
        parsed = []
        parse = ser.frac_parse

        def counting_parse(value):
            parsed.append(value)
            return parse(value)

        monkeypatch.setattr(ser, "frac_parse", counting_parse)
        monkeypatch.setattr(ramsey, "_require_fraction", None)  # FinMetric.build's parser
        doc = {"points": ["p", "q", "r"], "dist": [["0", "1/2", "1"], ["1/2", "0", "1/2"],
                                                  ["1", "1/2", "0"]]}
        m = ser.finmetric_from_json(doc)
        assert parsed == [x for row in doc["dist"] for x in row]
        assert m.dist[0] == (0, Fraction(1, 2), 1)

    def test_coloring(self):
        z = IntegerLattice(1)
        col = Coloring(GroundSet([(0,), (1,), (2,)]), (0, 2, 1), 2)
        doc = ser.coloring_to_json(col, z)
        assert ser.coloring_from_json(doc, z) == col

    def test_action(self):
        act = rotation_action(4)
        again = action_from_json(act.describe())
        assert again.describe() == act.describe()

    def test_certificate(self):
        z = IntegerLattice(1)
        ground = GroundSet([(i,) for i in range(-1, 11)])
        cover = Covering(
            ground,
            [[(i,) for i in range(-1, 11) if i % 2 == 0],
             [(i,) for i in range(-1, 11) if i % 2 == 1]],
        )
        cert = build_certificate(
            z, [(i,) for i in range(10)], [(1,)], cover, Fraction(9, 10)
        )
        doc = ser.certificate_to_json(cert)
        again = ser.certificate_from_json(doc)
        assert ser.certificate_to_json(again) == doc

    def test_rational_strings_never_floats(self):
        with pytest.raises(ValueError):
            ser.frac_parse(0.5)

    @pytest.mark.parametrize("value", [True, False])
    def test_rationals_never_booleans(self, value):
        with pytest.raises(ValueError, match="bools are not accepted"):
            ser.frac_parse(value)

    @pytest.mark.parametrize("value", ["1/0", "0/0", "-3/0"])
    def test_zero_denominator_is_invalid(self, value):
        with pytest.raises(ValueError, match="zero denominator"):
            ser.frac_parse(value)

    @pytest.mark.parametrize("colors, k", [(["0", 1, 0], 1), ([0, 1.0, 0], 1),
                                           ([0, 1, 0], True), ([0, 1, 0], "1")])
    def test_coloring_integers_are_strict(self, colors, k):
        doc = {"ground": ["a", "b", "c"], "colors": colors, "k": k}
        with pytest.raises(ValueError, match="must be an integer"):
            ser.coloring_from_json(doc)

    @pytest.mark.parametrize("edge", [["0", 0], [0, 0.0], [True, 0]])
    def test_graph_edge_indices_are_strict(self, edge):
        doc = {"left": ["x"], "right": ["u"], "edges": [edge]}
        with pytest.raises(ValueError, match="edge index must be an integer"):
            ser.graph_from_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [{"kind": "free", "rank": 2.0}, {"kind": "free", "rank": "2"},
         {"kind": "zd", "d": True},
         {"kind": "table", "elements": ["e", "a"], "mul": [[0, 1], [1, "0"]]},
         {"kind": "table", "elements": ["e", "a"], "mul": [[0, 1.0], [1, 0]]}],
    )
    def test_group_integers_are_strict(self, doc):
        from matchcover.groups import GroupError, group_from_json

        with pytest.raises(GroupError, match="must be an integer"):
            group_from_json(doc)

    def test_action_entries_are_strict(self):
        from matchcover.groups import GroupError

        doc = rotation_action(2).describe()
        doc["act"][1][0] = 1.0
        with pytest.raises(GroupError, match="action entry must be an integer"):
            action_from_json(doc)


class TestCoverCommands:
    def test_refines(self, tmp_path, covering_file, capsys):
        fine = write(
            tmp_path / "fine.json",
            {"ground": ["a", "b", "c", "d"], "blocks": [["a"], ["b"], ["c"], ["d"]]},
        )
        assert dispatch(["cover", "refines", "--coarse", covering_file, "--fine", fine]) == 0
        assert "refines" in capsys.readouterr().out

    def test_join_writes_file(self, tmp_path, covering_file):
        out = tmp_path / "joined.json"
        code = dispatch(
            ["cover", "join", "--u", covering_file, "--v", covering_file, "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ground"] == ["a", "b", "c", "d"]

    def test_star(self, tmp_path, covering_file, capsys):
        assert dispatch(["cover", "star", "--u", covering_file, "-n", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert ["a", "b", "c"] in doc["blocks"]

    def test_missing_file_is_usage_error(self, tmp_path):
        assert dispatch(["cover", "star", "--u", str(tmp_path / "nope.json")]) == 2


class TestMissingInputFlags:
    """Each cover and means action names the first flag it reads that is missing."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["cover", "refines", "--fine", "fine.json"], "--coarse"),
            (["cover", "star-refines", "--coarse", "cover.json"], "--fine"),
            (["cover", "join", "--u", "cover.json"], "--v"),
            (["cover", "star", "-n", "2"], "--u"),
            (["means", "convolve", "--group", "zd1", "--b", "a.json"], "--a"),
            (["means", "rationalize", "--alpha", "alpha.json"], "--theta"),
        ],
        ids=lambda v: v[1] if isinstance(v, list) else None,
    )
    def test_missing_flag_is_named(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)  # named files need not exist: nothing is loaded
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {argv[0]} {argv[1]} needs {flag}\n"


class TestMuAndMatch:
    def test_mu_command(self, tmp_path, covering_file, capsys):
        left = write(tmp_path / "left.json", ["a", "b"])
        right = write(tmp_path / "right.json", ["b", "c"])
        code = dispatch(
            ["mu", "--cover", covering_file, "--left", left, "--right", right, "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mu"] == 2

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "summary"])
    def test_mu_writes_the_witness_text_only_when_shown(
        self, tmp_path, covering_file, capsys, monkeypatch, as_json
    ):
        written = []
        dumps = ser.canonical_dumps

        def counted(doc):
            written.append(doc)
            return dumps(doc)

        monkeypatch.setattr(ser, "canonical_dumps", counted)
        left = write(tmp_path / "left.json", ["a", "b"])
        right = write(tmp_path / "right.json", ["b", "c"])
        argv = ["mu", "--cover", covering_file, "--left", left, "--right", right]
        assert dispatch(argv + ["--json"] * as_json) == 0
        out = capsys.readouterr().out
        if as_json:
            assert len(written) == 1 and json.loads(out)["mu"] == 2
        else:
            assert len(written) == 1 and written[0] == {"pairs": [[0, 0], [1, 1]]}
            assert out == "mu = 2\n" + dumps(written[0])

    def test_match_with_deficiency(self, tmp_path, capsys):
        graph = write(
            tmp_path / "graph.json",
            {"left": ["a", "b", "c"], "right": ["1", "2"], "edges": [[0, 0], [1, 0], [2, 1]]},
        )
        code = dispatch(["match", "--graph", graph, "--deficiency", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 2
        assert doc["deficiency"] == 1
        assert doc["deficiency_witness"] == ["a", "b"]

    @pytest.mark.parametrize(
        "left, right, side",
        [(["x", "x"], ["u"], "left"), (["x", "y"], ["u", "u"], "right")],
        ids=["left", "right"],
    )
    def test_match_duplicate_names_is_exit_two(self, tmp_path, capsys, left, right, side):
        # read by name, S = {x, x} is one vertex with one neighbour, not a
        # deficient pair
        graph = write(
            tmp_path / "graph.json", {"left": left, "right": right, "edges": [[0, 0], [1, 0]]}
        )
        assert dispatch(["match", "--graph", graph, "--deficiency"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: duplicate {side} vertex names\n"

    @pytest.mark.parametrize(
        "edges, kind, message",
        [
            ([[0, "1"], [0]], "GroupError", "edge index must be an integer, not '1'"),
            ([[0], [0, "1"]], "ValueError", "not enough values to unpack (expected 2, got 1)"),
            # a whole-list pass that let the short edge through would meet the
            # out-of-range edge (2, 3) first in the edge set
            ([[2, 3], [0]], "ValueError", "not enough values to unpack (expected 2, got 1)"),
            ([[0, 0], [True, 0]], "GroupError", "edge index must be an integer, not True"),
            ([[0, 0], [0, 0.0]], "GroupError", "edge index must be an integer, not 0.0"),
            ([[0, 0], [0, 0, 0]], "ValueError", "too many values to unpack (expected 2)"),
            ([[0, 0], "01"], "GroupError", "edge index must be an integer, not '0'"),
            ([[0, 0], None], "TypeError", "cannot unpack non-iterable NoneType object"),
            (5, "TypeError", "'int' object is not iterable"),
        ],
        ids=["index-before-short", "short-before-index", "range-before-short", "bool", "float",
             "long", "str",
             "null", "not-a-list"],
    )
    def test_malformed_edges_keep_their_messages(self, edges, kind, message):
        """Edges are type-checked in one pass; a failing list raises what a
        check edge by edge raises at its first bad edge."""
        doc = {"left": ["a", "b"], "right": ["x", "y"], "edges": edges}
        with pytest.raises(Exception) as got:
            ser.graph_from_json(doc)
        assert (type(got.value).__name__, str(got.value)) == (kind, message)

    def test_deficiency_matches_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        match_rows = bipartite._match_rows

        def counted(adj, n_right):
            calls.append(len(adj))
            return match_rows(adj, n_right)

        monkeypatch.setattr(bipartite, "_match_rows", counted)
        graph = write(
            tmp_path / "graph.json",
            {"left": ["a", "b", "c"], "right": ["1", "2"], "edges": [[0, 0], [1, 0], [2, 1]]},
        )
        assert dispatch(["match", "--graph", graph, "--deficiency"]) == 0
        assert capsys.readouterr().out == (
            "maximum matching size = 2\nhall deficiency = 1 at S = ['a', 'b']\n"
        )
        assert calls == [3]

    def test_match_long_alternating_path(self, tmp_path, capsys):
        n = 1200
        edges = [[i, j] for i in range(n - 1) for j in (i, i + 1)] + [[n - 1, 0]]
        graph = write(
            tmp_path / "path.json",
            {"left": [str(i) for i in range(n)], "right": [str(i) for i in range(n)],
             "edges": edges},
        )
        code = dispatch(["match", "--graph", graph, "--deficiency", "--json"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        doc = json.loads(captured.out)
        assert (doc["size"], doc["deficiency"]) == (n, 0)


class TestAtomsAtDecode:
    """Without a group an atom is a string; any other JSON value is invalid
    input when the document is read, whichever command reads it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cover", "refines", "--coarse", "cover.json", "--fine", "cover.json"],
            ["cover", "star-refines", "--coarse", "cover.json", "--fine", "cover.json"],
            ["cover", "join", "--u", "cover.json", "--v", "cover.json"],
            ["cover", "star", "--u", "cover.json"],
            ["mu", "--cover", "cover.json", "--left", "set.json", "--right", "set.json"],
            ["match", "--graph", "graph.json"],
        ],
        ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("--")),
    )
    def test_non_string_atom_is_exit_two(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "cover.json", {"ground": [1, 2], "blocks": [[1, 2]]})
        write(tmp_path / "set.json", [1, 2])
        write(tmp_path / "graph.json", {"left": [1], "right": [2], "edges": [[0, 0]]})
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: atoms must be strings without a group context: 1\n"


class TestFolnerCommands:
    def run_search(self, tmp_path, theta="9/10", radius="10"):
        out = tmp_path / "cert.json"
        code = dispatch(
            [
                "folner", "search",
                "--group", "zd1",
                "--coloring", "parity",
                "--e", "1;-1",
                "--theta", theta,
                "--max-radius", radius,
                "--out", str(out),
            ]
        )
        return code, out

    def test_search_pass_and_check(self, tmp_path):
        code, out = self.run_search(tmp_path)
        assert code == 0
        assert dispatch(["verify", str(out)]) == 0

    def test_tampered_certificate_fails_verify(self, tmp_path):
        code, out = self.run_search(tmp_path)
        doc = json.loads(out.read_text())
        doc["pairs"][0]["witness"]["pairs"][0][1] = (
            doc["pairs"][0]["witness"]["pairs"][1][1]
        )
        out.write_text(json.dumps(doc))
        assert dispatch(["verify", str(out)]) == 1

    def test_window_escape_is_exit_two(self, tmp_path):
        code, out = self.run_search(tmp_path)
        doc = json.loads(out.read_text())
        # drop a window element referenced by a translate
        doc["cover"]["ground"] = doc["cover"]["ground"][1:]
        doc["cover"]["blocks"] = [
            [a for a in b if a in doc["cover"]["ground"]] for b in doc["cover"]["blocks"]
        ]
        out.write_text(json.dumps(doc))
        assert dispatch(["verify", str(out)]) == 2

    def test_negative_theta_is_exit_two(self, tmp_path, capsys):
        _, out = self.run_search(tmp_path)
        doc = json.loads(out.read_text())
        doc["theta"] = "-5"
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert dispatch(["verify", str(out)]) == 2
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_empty_candidate_set_is_exit_two(self, tmp_path, capsys):
        _, out = self.run_search(tmp_path)
        doc = json.loads(out.read_text())
        # a vacuous claim: with |F| = 0 every threshold ceil(theta*0) is met
        doc["f"] = []
        for pair in doc["pairs"]:
            pair["mu"] = 0
            pair["witness"]["pairs"] = []
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert dispatch(["verify", str(out)]) == 2
        assert "empty candidate set" in capsys.readouterr().err

    def test_duplicate_f_entry_is_exit_two(self, tmp_path, capsys):
        _, out = self.run_search(tmp_path)
        doc = json.loads(out.read_text())
        doc["f"].append(doc["f"][0])
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert dispatch(["verify", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: certificate candidate set F has duplicate entries\n"

    def verify_edited(self, tmp_path, capsys, edit, command=("verify",)):
        _, out = self.run_search(tmp_path)
        doc = json.loads(out.read_text())
        edit(doc)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        code = dispatch([*command, str(out)])
        return code, capsys.readouterr()

    @pytest.mark.parametrize(
        "field, value",
        [("mu", 10.9), ("mu", "10"), ("mu", True), ("index", 0.5), ("index", "0"),
         ("index", False)],
    )
    def test_non_integer_is_exit_two(self, tmp_path, capsys, field, value):
        def edit(doc):
            pair = doc["pairs"][0]
            if field == "mu":
                pair["mu"] = value
            else:
                pair["witness"]["pairs"][0][0] = value

        code, captured = self.verify_edited(tmp_path, capsys, edit)
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "must be an integer" in captured.err

    @pytest.mark.parametrize("value", [0, None, [], 1.5])
    def test_pair_element_not_a_string_is_exit_two(self, tmp_path, capsys, value):
        code, captured = self.verify_edited(
            tmp_path, capsys, lambda doc: doc["pairs"][0].update(g=value)
        )
        assert code == 2
        assert captured.err == f"error: element must be a string: {value!r}\n"

    @pytest.mark.parametrize("value", ["+0", "0_0", " 0", "\u0660", "00", "-0"])
    def test_non_canonical_spelling_is_exit_two(self, tmp_path, capsys, value):
        # the pair's g is "0"; each edit names the same element, spelled otherwise
        code, captured = self.verify_edited(
            tmp_path, capsys, lambda doc: doc["pairs"][0].update(g=value)
        )
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: bad Z^1 element string: {value!r}\n"

    @pytest.mark.parametrize("value", [0, None, [0], {"x": 1}, "+0"])
    @pytest.mark.parametrize("where", ["ground", "block", "f", "e", "h"])
    def test_bad_atom_anywhere_is_the_parsers_error(self, tmp_path, capsys, where, value):
        # a document's element strings are parsed once each; anything else,
        # unhashable JSON values included, fails as the model's parser does
        def edit(doc):
            if where == "ground":
                doc["cover"]["ground"][0] = value
            elif where == "block":
                doc["cover"]["blocks"][0][0] = value
            elif where == "h":
                doc["pairs"][0]["h"] = value
            else:
                doc[where][0] = value

        code, captured = self.verify_edited(tmp_path, capsys, edit)
        with pytest.raises(GroupError) as expected:
            IntegerLattice(1).parse_elem(value)
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {expected.value}\n"

    def test_each_element_string_is_parsed_once(self, tmp_path, monkeypatch):
        _, out = self.run_search(tmp_path)
        doc = json.loads(out.read_text())
        parse, seen = IntegerLattice.parse_elem, []

        def counting(model, s):
            seen.append(s)
            return parse(model, s)

        monkeypatch.setattr(IntegerLattice, "parse_elem", counting)
        cert = ser.certificate_from_json(doc)
        strings = {*doc["cover"]["ground"], *doc["f"], *doc["e"]}
        strings.update(s for pair in doc["pairs"] for s in (pair["g"], pair["h"]))
        assert sorted(seen) == sorted(strings)
        del doc["manifest"]
        assert ser.certificate_to_json(cert) == doc
        seen.clear()
        z = IntegerLattice(1)
        assert ser.covering_from_json(doc["cover"], z) == cert.cover
        assert sorted(seen) == sorted(doc["cover"]["ground"])

    @pytest.mark.parametrize("value", ["zd1", [1]])
    def test_group_not_an_object_is_exit_two(self, tmp_path, capsys, value):
        code, captured = self.verify_edited(
            tmp_path, capsys, lambda doc: doc.update(group=value)
        )
        assert code == 2
        assert captured.err.startswith("error: group must be a JSON object")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", [1.5, "1", True])
    def test_group_dimension_not_an_integer_is_exit_two(self, tmp_path, capsys, value):
        code, captured = self.verify_edited(
            tmp_path, capsys, lambda doc: doc["group"].update(d=value)
        )
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: group d must be an integer, not {value!r}\n"

    def test_zero_denominator_theta_is_exit_two(self, tmp_path, capsys):
        code, captured = self.verify_edited(
            tmp_path, capsys, lambda doc: doc.update(theta="1/0")
        )
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: rational '1/0' has a zero denominator\n"

    def test_zero_denominator_best_ratio_is_exit_two(self, tmp_path, capsys):
        out = self.run_exhausted(tmp_path)
        doc = json.loads(out.read_text())
        doc["best_ratio"] = "1/0"
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert dispatch(["verify", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rational '1/0' has a zero denominator\n"

    @pytest.mark.parametrize(
        "value, message",
        [(-5, "evaluations must be at least 1, got -5"),
         (0, "evaluations must be at least 1, got 0"),
         ("3", "evaluations must be an integer, not '3'"),
         (1.0, "evaluations must be an integer, not 1.0"),
         (True, "evaluations must be an integer, not True"),
         (None, "evaluations must be an integer, not None")],
    )
    def test_evaluations_below_one_or_not_an_integer_is_exit_two(self, tmp_path, capsys,
                                                                  value, message):
        out = self.run_exhausted(tmp_path)
        doc = json.loads(out.read_text())
        doc["evaluations"] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert dispatch(["verify", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_any_evaluations_of_at_least_one_verify(self, tmp_path, capsys):
        # the count is the search's own; verify can check only its range
        out = self.run_exhausted(tmp_path)
        doc = json.loads(out.read_text())
        for value in (1, doc["evaluations"] + 1000):
            doc["evaluations"] = value
            out.write_text(json.dumps(doc))
            capsys.readouterr()
            assert dispatch(["verify", str(out)]) == 0
            assert capsys.readouterr().out == "OK\n"

    def run_exhausted(self, tmp_path):
        out = tmp_path / "report.json"
        code = dispatch(
            ["folner", "search", "--group", "free2", "--coloring", "first-letter",
             "--e", "a;A;b;B", "--theta", "9/10", "--max-radius", "3", "--out", str(out)]
        )
        assert code == 1
        return out

    def empty_e(self, doc):
        doc["e"] = []
        doc["pairs"] = []

    @pytest.mark.parametrize("command", [("verify",)])
    def test_empty_e_is_vacuous(self, tmp_path, capsys, command):
        code, captured = self.verify_edited(tmp_path, capsys, self.empty_e, command)
        assert (code, captured.out) == (1, "VACUOUS\n")
        assert captured.err == "vacuous: E is empty\n"

    @pytest.mark.parametrize("command", [("verify",)])
    def test_zero_theta_is_vacuous(self, tmp_path, capsys, command):
        code, captured = self.verify_edited(
            tmp_path, capsys, lambda doc: doc.update(theta="0"), command
        )
        assert (code, captured.out) == (1, "VACUOUS\n")
        assert captured.err == "vacuous: theta = 0\n"

    def test_empty_e_and_zero_theta_are_one_line(self, tmp_path, capsys):
        def edit(doc):
            self.empty_e(doc)
            doc["theta"] = "0/1"

        code, captured = self.verify_edited(tmp_path, capsys, edit)
        assert (code, captured.out) == (1, "VACUOUS\n")
        assert captured.err == "vacuous: E is empty; theta = 0\n"

    def test_sym_with_one_translate_is_vacuous(self, tmp_path, capsys):
        out = tmp_path / "sym.json"
        code = dispatch(
            ["folner", "search", "--group", "zd1", "--coloring", "parity", "--e", "1",
             "--mode", "sym", "--theta", "9/10", "--max-radius", "3", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        assert dispatch(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "VACUOUS\n"
        assert captured.err == "vacuous: sym mode with one translate has no pair to check\n"

    def test_vacuous_and_failing_prints_fail(self, tmp_path, capsys):
        def edit(doc):
            doc["theta"] = "0"
            doc["pairs"][0]["mu"] += 1

        code, captured = self.verify_edited(tmp_path, capsys, edit)
        assert (code, captured.out) == (1, "FAIL\n")
        assert captured.err.endswith("vacuous: theta = 0\n")

    def test_search_exhausted_exit_one(self, tmp_path):
        out = tmp_path / "report.json"
        code = dispatch(
            [
                "folner", "search",
                "--group", "free2",
                "--coloring", "first-letter",
                "--e", "a;A;b;B",
                "--theta", "9/10",
                "--max-radius", "3",
                "--out", str(out),
            ]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["schema"] == "folner-exhausted/1"
        assert dispatch(["verify", str(out)]) == 0
        doc["best_ratio"] = "1/1"
        out.write_text(json.dumps(doc))
        assert dispatch(["verify", str(out)]) == 1

    def test_adversary(self, tmp_path, capsys):
        code = dispatch(
            [
                "folner", "adversary",
                "--group", "free2",
                "--f", "1;a;A;b;B",
                "--e", "a",
                "--colors", "1",
                "--budget", "400",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # |{1, a, A, b, B} & a{1, a, A, b, B}| = |{1, a}|
        assert doc["min_ratio"] == "2/5"

    @pytest.mark.parametrize("budget", ["0", "-3", "24000"])
    def test_adversary_budget_and_seed_have_no_effect(self, tmp_path, budget):
        argv = ["folner", "adversary", "--group", "free2", "--f", "1;a;A;b;B", "--e", "a;b",
                "--colors", "2"]
        assert dispatch(argv + ["--out", str(tmp_path / "plain.json")]) == 0
        flagged = ["--budget", budget, "--seed", "7", "--out", str(tmp_path / "flagged.json")]
        assert dispatch(argv + flagged) == 0
        assert (tmp_path / "flagged.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_local_search_budget_below_one_is_exit_two(self, capsys, budget):
        argv = ["folner", "search", "--group", "free2", "--coloring", "first-letter",
                "--e", "a", "--theta", "1/2", "--strategy", "local"]
        assert dispatch(argv + ["--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: local search budget must be at least 1, got {budget}\n"

    def test_net(self, tmp_path, capsys):
        group = write(tmp_path / "z6.json", cyclic_group(6).describe())
        code = dispatch(
            ["folner", "net", "--group", group, "--u", "0;1", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["v"] == ["0", "1"]
        assert doc["f"] == ["0", "2", "4"]
        assert doc["minimal"] is True

    def test_mono_found_and_not_found(self, tmp_path):
        window = write(tmp_path / "win.json", [str(i) for i in range(-5, 6)])
        blocks = [[str(i), str(i + 1)] for i in range(-5, 5)]
        cover = write(
            tmp_path / "cover.json",
            {"ground": [str(i) for i in range(-5, 6)], "blocks": blocks},
        )
        assert (
            dispatch(
                ["folner", "mono", "--group", "zd1", "--window", window,
                 "--cover", cover, "--e", "0;1"]
            )
            == 0
        )
        singletons = write(
            tmp_path / "singles.json",
            {"ground": [str(i) for i in range(-5, 6)],
             "blocks": [[str(i)] for i in range(-5, 6)]},
        )
        assert (
            dispatch(
                ["folner", "mono", "--group", "zd1", "--window", window,
                 "--cover", singletons, "--e", "0;1"]
            )
            == 1
        )


class TestMeansCommands:
    def test_convolve(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", {"weights": {"-1": "1/2", "1": "1/2"}})
        code = dispatch(
            ["means", "convolve", "--group", "zd1", "--a", a, "--b", a]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["weights"] == {"-2": "1/4", "0": "1/2", "2": "1/4"}

    def test_rationalize(self, tmp_path, capsys):
        alpha = write(tmp_path / "alpha.json", {"weights": {"x": "1/3", "y": "2/3"}})
        code = dispatch(
            ["means", "rationalize", "--alpha", alpha, "--theta", "1/100"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert sum(doc["gamma"].values()) == doc["n"]

    @pytest.mark.parametrize("weights", [["0"], "0", 3], ids=["list", "string", "number"])
    @pytest.mark.parametrize("action", ["convolve", "rationalize"])
    def test_weights_not_an_object_is_exit_two(self, tmp_path, capsys, action, weights):
        doc = write(tmp_path / "w.json", {"weights": weights})
        argv = {
            "convolve": ["means", "convolve", "--group", "zd1", "--a", doc, "--b", doc],
            "rationalize": ["means", "rationalize", "--alpha", doc, "--theta", "1/2"],
        }[action]
        assert dispatch(argv) == 2
        assert capsys.readouterr() == ("", "error: mean weights must be an object\n")


class TestRamseyCommand:
    def metrics(self, tmp_path):
        a = write(tmp_path / "a.json", {"points": ["p"], "dist": [["0"]]})
        b = write(
            tmp_path / "b.json",
            {"points": ["x", "y"], "dist": [["0", "1"], ["1", "0"]]},
        )
        c = write(
            tmp_path / "c.json",
            {
                "points": ["c0", "c1", "c2", "c3"],
                "dist": [
                    ["0", "1", "2", "3"],
                    ["1", "0", "1", "2"],
                    ["2", "1", "0", "1"],
                    ["3", "2", "1", "0"],
                ],
            },
        )
        return a, b, c

    def test_check_and_verify(self, tmp_path):
        a, b, c = self.metrics(tmp_path)
        out = tmp_path / "ramsey.json"
        code = dispatch(
            [
                "ramsey", "check", "--a", a, "--b", b, "--c", c,
                "--colors", "1", "--eps", "1/2", "--out", str(out),
            ]
        )
        assert code == 0
        assert dispatch(["verify", str(out)]) == 0

    def test_tampered_family_fails(self, tmp_path):
        a, b, c = self.metrics(tmp_path)
        out = tmp_path / "ramsey.json"
        dispatch(
            [
                "ramsey", "check", "--a", a, "--b", b, "--c", c,
                "--colors", "1", "--eps", "1/2", "--out", str(out),
            ]
        )
        doc = json.loads(out.read_text())
        # replace one witness family by a mismatched pair of directions
        doc["witnesses"][5]["family"] = [0]
        doc["witnesses"][5]["coloring"] = [0, 1, 0, 1]
        out.write_text(json.dumps(doc))
        assert dispatch(["verify", str(out)]) == 1

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--budget", "-5", "family_budget"), ("--budget", "0", "family_budget"),
         ("--max-family", "0", "max_family"), ("--max-family", "-2", "max_family")],
    )
    def test_family_bound_below_one_is_exit_two(self, tmp_path, capsys, flag, value, name):
        a, b, c = self.metrics(tmp_path)
        out = tmp_path / "ramsey.json"
        code = dispatch(
            ["ramsey", "check", "--a", a, "--b", b, "--c", c, "--eps", "1/2",
             flag, value, "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {name} must be at least 1, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0.5", "floats are not accepted for exact rationals; "
                    "pass a Fraction, an int or a 'p/q' string"),
            ("true", "bools are not accepted for exact rationals; "
                     "pass a Fraction, an int or a 'p/q' string"),
            ('"1/0"', "rational '1/0' has a zero denominator"),
            ('"one"', "Invalid literal for Fraction: 'one'"),
        ],
    )
    def test_bad_distance_is_exit_two(self, tmp_path, capsys, value, message):
        a, b, _ = self.metrics(tmp_path)
        c = tmp_path / "bad.json"
        c.write_text('{"points": ["u", "v"], "dist": [["0", %s], ["1", "0"]]}' % value)
        code = dispatch(
            ["ramsey", "check", "--a", a, "--b", b, "--c", str(c), "--eps", "1/2"]
        )
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestVerifyRamseyReport:
    """Hand-edited reports: malformed ones exit 2 with one line, false or
    incomplete claims exit 1, and neither gives a traceback."""

    def report(self, tmp_path, *extra):
        a, b, c = TestRamseyCommand().metrics(tmp_path)
        out = tmp_path / "ramsey.json"
        dispatch(
            ["ramsey", "check", "--a", a, "--b", b, "--c", c, "--colors", "1",
             "--eps", "1/2", "--out", str(out), *extra]
        )
        return out, json.loads(out.read_text())

    def failing_report(self, tmp_path):
        # a point into a 3-point path, one edge per family: fails at (0, 1, 0)
        write(tmp_path / "path3.json", {
            "points": ["u", "v", "w"],
            "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
        })
        a, b, _ = TestRamseyCommand().metrics(tmp_path)
        out = tmp_path / "ramsey.json"
        code = dispatch(
            ["ramsey", "check", "--a", a, "--b", b, "--c", str(tmp_path / "path3.json"),
             "--colors", "1", "--eps", "1/2", "--max-family", "1", "--out", str(out)]
        )
        doc = json.loads(out.read_text())
        assert code == 1 and doc["counterexample"] == [0, 1, 0]
        return out, doc

    def verify(self, out, doc, capsys):
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        code = dispatch(["verify", str(out)])
        return code, capsys.readouterr()

    def assert_malformed(self, out, doc, capsys):
        code, captured = self.verify(out, doc, capsys)
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_genuine_reports_verify(self, tmp_path, capsys):
        for out, doc in (self.report(tmp_path), self.failing_report(tmp_path)):
            assert self.verify(out, doc, capsys) == (0, ("OK\n", ""))

    def test_eps_out_of_range_is_exit_two(self, tmp_path, capsys):
        out, doc = self.report(tmp_path)
        doc["eps"] = "5"
        self.assert_malformed(out, doc, capsys)

    def test_k_zero_is_exit_two(self, tmp_path, capsys):
        out, doc = self.report(tmp_path)
        doc["k"] = 0
        self.assert_malformed(out, doc, capsys)

    def test_negative_family_index_is_exit_two(self, tmp_path, capsys):
        out, doc = self.report(tmp_path)
        doc["witnesses"][0]["family"] = [-1]
        self.assert_malformed(out, doc, capsys)

    def test_family_index_past_the_end_is_exit_two(self, tmp_path, capsys):
        out, doc = self.report(tmp_path)
        doc["witnesses"][0]["family"] = [999]
        self.assert_malformed(out, doc, capsys)

    @pytest.mark.parametrize("family", [[], 0, "0", [0.0], [True]])
    def test_family_not_a_list_of_indices_is_exit_two(self, tmp_path, capsys, family):
        out, doc = self.report(tmp_path)
        doc["witnesses"][0]["family"] = family
        self.assert_malformed(out, doc, capsys)

    @pytest.mark.parametrize(
        "field, value",
        [("k", "1"), ("k", 1.5), ("k", True), ("max_family", 4.9), ("max_family", "4"),
         ("family_budget", 2000.0), ("colorings_checked", 16.0)],
    )
    def test_integer_field_not_an_integer_is_exit_two(self, tmp_path, capsys, field, value):
        # each value equals the genuine one once coerced with int()
        out, doc = self.report(tmp_path)
        assert doc[field] == int(value)
        doc[field] = value
        code, captured = self.verify(out, doc, capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {field} must be an integer, not {value!r}\n"

    @pytest.mark.parametrize(
        "field, value", [("family_budget", -5), ("family_budget", 0), ("max_family", 0),
                         ("max_family", -2)],
    )
    def test_family_bound_below_one_is_exit_two(self, tmp_path, capsys, field, value):
        for out, doc in (self.report(tmp_path), self.failing_report(tmp_path)):
            doc[field] = value
            code, captured = self.verify(out, doc, capsys)
            assert (code, captured.out) == (2, "")
            assert captured.err == f"error: {field} must be at least 1, got {value}\n"

    def test_missing_witnesses_fail(self, tmp_path, capsys):
        out, doc = self.report(tmp_path)
        doc["witnesses"] = []
        code, captured = self.verify(out, doc, capsys)
        assert (code, captured.out) == (1, "FAIL\n")
        assert captured.err.startswith("witnesses-mismatch: ")

    def test_copies_of_the_first_witness_fail(self, tmp_path, capsys):
        out, doc = self.report(tmp_path)
        doc["witnesses"] = [doc["witnesses"][0]] * len(doc["witnesses"])
        code, captured = self.verify(out, doc, capsys)
        assert (code, captured.out) == (1, "FAIL\n")
        assert "Traceback" not in captured.err

    def test_changed_counterexample_fails(self, tmp_path, capsys):
        out, doc = self.failing_report(tmp_path)
        doc["counterexample"] = [7, 7, 7]
        code, captured = self.verify(out, doc, capsys)
        assert (code, captured.out) == (1, "FAIL\n")
        assert captured.err == (
            "counterexample-mismatch: stored (7, 7, 7), expected (0, 1, 0)\n"
        )

    def test_null_counterexample_fails(self, tmp_path, capsys):
        out, doc = self.failing_report(tmp_path)
        doc["counterexample"] = None
        code, captured = self.verify(out, doc, capsys)
        assert (code, captured.out) == (1, "FAIL\n")
        assert captured.err.startswith("counterexample-mismatch: stored None")

    def test_changed_colorings_checked_fails(self, tmp_path, capsys):
        out, doc = self.failing_report(tmp_path)
        doc["colorings_checked"] = 99
        code, captured = self.verify(out, doc, capsys)
        assert (code, captured.out) == (1, "FAIL\n")
        assert captured.err == "colorings_checked-mismatch: stored 99, expected 3\n"

    def test_verify_non_object_is_exit_two(self, tmp_path, capsys):
        bad = write(tmp_path / "list.json", [1, 2])
        assert dispatch(["verify", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestListsAtDecode:
    """Where a document holds a list, a JSON string is invalid input, not the
    list of its characters: each document runs with exit 0 until one of its
    lists is joined into one string, and then exits 2 with one line."""

    @staticmethod
    def certificate(tmp_path):
        out = tmp_path / "cert.json"
        dispatch(["folner", "search", "--group", "zd1", "--coloring", "trivial", "--e", "1",
                  "--theta", "1/2", "--max-radius", "1", "--out", str(out)])
        return out, ["verify", str(out)]

    @staticmethod
    def report(tmp_path):
        out, _ = TestVerifyRamseyReport().report(tmp_path)
        return out, ["verify", str(out)]

    @staticmethod
    def coloring(tmp_path):
        col = tmp_path / "col.json"
        write(col, {"ground": ["0", "1"], "colors": [0, 0], "k": 1})
        return col, ["folner", "search", "--group", "zd1", "--coloring", str(col), "--e", "1",
                     "--theta", "1/2", "--max-radius", "0"]

    @staticmethod
    def covering(tmp_path):
        cover = tmp_path / "cover.json"
        write(cover, {"ground": ["a", "b"], "blocks": [["a", "b"]]})
        left = write(tmp_path / "left.json", ["a", "b"])
        return cover, ["mu", "--cover", str(cover), "--left", left, "--right", left]

    @staticmethod
    def elements(tmp_path):
        cover = write(tmp_path / "cover.json", {"ground": ["a", "b"], "blocks": [["a", "b"]]})
        left = tmp_path / "left.json"
        write(left, ["a", "b"])
        return left, ["mu", "--cover", cover, "--left", str(left), "--right", str(left)]

    @pytest.mark.parametrize(
        "source, path, what",
        [
            pytest.param("certificate", ("f",), "certificate f", id="certificate-f"),
            pytest.param("certificate", ("e",), "certificate e", id="certificate-e"),
            pytest.param(
                "certificate", ("cover", "ground"), "covering ground", id="certificate-ground"
            ),
            pytest.param(
                "certificate", ("cover", "blocks", 0), "covering block", id="certificate-block"
            ),
            pytest.param("report", ("b", "points"), "metric points", id="report-points"),
            pytest.param("report", ("a", "dist", 0), "metric dist row", id="report-dist-row"),
            pytest.param("coloring", ("ground",), "coloring ground", id="coloring-ground"),
            pytest.param("elements", (), "element list", id="element-list"),
        ],
    )
    def test_string_for_a_list_is_exit_two(self, tmp_path, capsys, source, path, what):
        out, argv = getattr(self, source)(tmp_path)
        assert dispatch(argv) == 0
        doc = json.loads(out.read_text())
        if path:
            *outer, last = path
            holder = doc
            for key in outer:
                holder = holder[key]
            holder[last] = "".join(holder[last])
        else:
            doc = "".join(doc)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert dispatch(argv) == 2
        assert capsys.readouterr() == ("", f"error: {what} must be a list\n")

    @pytest.mark.parametrize("value", ["01", {"a": 1}, 7], ids=["string", "object", "number"])
    @pytest.mark.parametrize(
        "source, path, what",
        [
            pytest.param("coloring", ("colors",), "coloring colors", id="coloring-colors"),
            pytest.param("covering", ("blocks",), "covering blocks", id="covering-blocks"),
            pytest.param(
                "certificate", ("cover", "blocks"), "covering blocks", id="certificate-blocks"
            ),
        ],
    )
    def test_colors_and_blocks_must_be_lists(self, tmp_path, capsys, source, path, what, value):
        """The outer list is refused whole, not read item by item: a string
        was read one character at a time and an object key by key, so the
        error named a color, a block or the vector length."""
        out, argv = getattr(self, source)(tmp_path)
        assert dispatch(argv) == 0
        doc = json.loads(out.read_text())
        *outer, last = path
        holder = doc
        for key in outer:
            holder = holder[key]
        holder[last] = value
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert dispatch(argv) == 2
        assert capsys.readouterr() == ("", f"error: {what} must be a list\n")


class TestColoringGround:
    """A coloring file's Z^d ground is read in bulk; a bad element anywhere
    in it still exits 2 with ``parse_elem``'s one line for that element."""

    @pytest.mark.parametrize(
        "bad", ["1, 2", "+1,2", "01,2", "-0,2", "1_0,2", "1;2", "\u0661,2", "1", "1,2,3", 7],
    )
    @pytest.mark.parametrize("at", [0, 4, 8])
    def test_bad_element_is_one_error_line(self, tmp_path, capsys, bad, at):
        model = IntegerLattice(2)
        ground = [model.elem_str(g) for g in model.ball(1)] + ["2,0", "0,2", "-2,0"]
        col = tmp_path / "col.json"
        argv = ["folner", "search", "--group", "zd2", "--coloring", str(col), "--e", "1,0",
                "--theta", "1/2", "--max-radius", "0", "--out", str(tmp_path / "cert.json")]
        write(col, {"ground": ground, "colors": [0] * len(ground), "k": 1})
        assert dispatch(argv) == 0
        ground.insert(at, bad)
        write(col, {"ground": ground, "colors": [0] * len(ground), "k": 1})
        with pytest.raises(GroupError) as want:
            model.parse_elem(bad)
        capsys.readouterr()
        assert dispatch(argv) == 2
        assert capsys.readouterr() == ("", f"error: {want.value}\n")


class TestObjectsAtDecode:
    """Each reader the CLI hands a whole JSON document to refuses anything
    but an object, and an object without a key it reads, with one line that
    names the document kind and the key."""

    READERS = {
        "covering": (["mu", "--cover", "{}", "--left", "{}", "--right", "{}"], "ground"),
        "coloring": (
            ["folner", "search", "--group", "zd1", "--coloring", "{}", "--e", "1",
             "--theta", "1/2", "--max-radius", "0"],
            "ground",
        ),
        "graph": (["match", "--graph", "{}"], "left"),
        "mean": (["means", "convolve", "--group", "zd1", "--a", "{}", "--b", "{}"], "weights"),
        "weights": (["means", "rationalize", "--alpha", "{}", "--theta", "1/2"], "weights"),
        "metric": (
            ["ramsey", "check", "--a", "{}", "--b", "{}", "--c", "{}", "--colors", "1",
             "--eps", "1/2"],
            "points",
        ),
        "group": (
            ["folner", "search", "--group", "{}", "--coloring", "trivial", "--e", "1",
             "--theta", "1/2", "--max-radius", "0"],
            "kind",
        ),
    }

    @pytest.mark.parametrize(
        "doc, top", [(["0"], "list"), ("0", "str"), ({}, None)], ids=["list", "string", "empty"]
    )
    @pytest.mark.parametrize("reader", list(READERS))
    def test_not_an_object_or_missing_key_is_exit_two(self, tmp_path, capsys, reader, doc, top):
        argv, key = self.READERS[reader]
        path = write(tmp_path / "doc.json", doc)
        kind = "mean" if reader == "weights" else reader
        want = (
            f"{kind} must be a JSON object, not {top}" if top else
            f"{kind} is missing the key {key!r}"
        )
        assert dispatch([path if a == "{}" else a for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {want}\n")


CERTIFICATE_KEYS = ["cover", "e", "f", "group", "mode", "pairs", "status", "theta"]
REPORT_KEYS = ["a", "b", "c", "colorings_checked", "counterexample", "eps", "family_budget",
               "holds", "k", "max_family", "vacuous", "witnesses"]
PAIR_KEYS = ["g", "h", "mu", "witness"]


def _missing_key_cases():
    """(document, path to the edited object, key or None, kind): the key is
    deleted, or with None the object is replaced by the list of its values."""
    top = {"certificate": ("certificate", CERTIFICATE_KEYS),
           "exhausted": ("exhausted report", CERTIFICATE_KEYS + ["best_ratio", "evaluations"]),
           "report": ("ramsey report", REPORT_KEYS)}
    for source, (kind, keys) in top.items():
        for key in ["schema", *keys]:
            yield source, (), key, "document" if key == "schema" else kind
    for source in ("certificate", "exhausted"):
        for key in PAIR_KEYS:
            yield source, ("pairs", 0), key, "certificate pair"
        yield source, ("pairs", 0, "witness"), "pairs", "witness"
        yield source, ("pairs", 0), None, "certificate pair"
        yield source, ("pairs", 0, "witness"), None, "witness"
    for key in ("coloring", "family"):
        yield "report", ("witnesses", 0), key, "ramsey witness"
    yield "report", ("witnesses", 0), None, "ramsey witness"


class TestMissingKeysAtVerify:
    """Every object ``verify`` reads names its kind and the key it lacks, or
    its own type when it is not an object: exit 2, one ``error:`` line and
    nothing on stdout."""

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("documents")
        paths = {
            "certificate": TestListsAtDecode.certificate(tmp)[0],
            "exhausted": TestFolnerCommands().run_exhausted(tmp),
            "report": TestVerifyRamseyReport().report(tmp)[0],
        }
        return {name: json.loads(path.read_text()) for name, path in paths.items()}

    def verify(self, tmp_path, capsys, doc):
        path = write(tmp_path / "edited.json", doc)
        capsys.readouterr()
        return dispatch(["verify", path]), capsys.readouterr()

    @pytest.mark.parametrize(
        "source, path, key, kind",
        [pytest.param(*case, id="-".join(map(str, [case[0], *case[1], case[2] or "list"])))
         for case in _missing_key_cases()],
    )
    def test_missing_key_or_list_names_kind_and_key(self, tmp_path, capsys, documents, source,
                                                    path, key, kind):
        doc = copy.deepcopy(documents[source])
        outer, target = None, doc
        for step in path:
            outer, target = target, target[step]
        if key is None:
            outer[path[-1]] = list(target.values())
            want = f"{kind} must be a JSON object, not list"
        else:
            del target[key]
            want = f"{kind} is missing the key {key!r}"
        assert self.verify(tmp_path, capsys, doc) == (2, ("", f"error: {want}\n"))


class TestSweep:
    def test_csv_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = dispatch(
            [
                "sweep", "--group", "zd2", "--theta-grid", "1/2:3/4:1/8",
                "--max-radius", "3", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "min_ratio" in header and "min_ratio_decimal_lossy" in header
        assert len(lines) == 1 + 3 * 4  # three thetas, radii 0..3

    def test_empty_grid_is_exit_two(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = dispatch(
            [
                "sweep", "--group", "zd2", "--theta-grid", "1:1/2:1/10",
                "--max-radius", "2", "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: theta grid is empty")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_decimal_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = dispatch(
            [
                "sweep", "--group", "zd1", "--theta-grid", "0.5:0.95:0.05",
                "--max-radius", "2", "--out", str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert rows[0].split(",")[0] == "1/2"


class TestSearchWindow:
    """Only a builtin coloring reads the search window, so only it builds one."""

    SEARCH = ["folner", "search", "--group", "zd2", "--e", "1,0;0,-1", "--theta", "1/2",
              "--max-radius", "3"]
    SWEEP = ["sweep", "--group", "zd2", "--theta-grid", "1/2:1:1/2", "--max-radius", "3"]
    LOCAL = ["--strategy", "local", "--budget", "40"]

    @pytest.fixture
    def cover_files(self, tmp_path):
        model = IntegerLattice(2)
        coloring = cli.builtin_coloring(model, "parity", model.ball(5))
        return {
            "--coloring": write(tmp_path / "coloring.json", ser.coloring_to_json(coloring, model)),
            "--cover": write(tmp_path / "cover.json", ser.covering_to_json(coloring.partition(), model)),
        }

    def window_calls(self, monkeypatch) -> list:
        calls = []
        real = cli._search_window

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "_search_window", counted)
        return calls

    @pytest.mark.parametrize("flag", ["--coloring", "--cover"])
    @pytest.mark.parametrize("run", ["balls", "local", "sweep"])
    def test_file_driven_run_builds_no_window(self, tmp_path, monkeypatch, capsys, cover_files,
                                              flag, run):
        def unread(*_):
            raise AssertionError("the search window was built for a file-driven run")

        monkeypatch.setattr(cli, "_search_window", unread)
        argv = {"balls": self.SEARCH, "local": self.SEARCH + self.LOCAL, "sweep": self.SWEEP}[run]
        argv = argv + [flag, cover_files[flag], "--out", str(tmp_path / "out")]
        assert dispatch(argv) in (0, 1)
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [SEARCH + ["--coloring", "parity"], SEARCH + LOCAL + ["--coloring", "parity"],
         SWEEP + ["--coloring", "parity"], SWEEP],
        ids=["balls", "local", "sweep", "sweep-default"],
    )
    def test_builtin_coloring_builds_the_window_once(self, tmp_path, monkeypatch, argv):
        calls = self.window_calls(monkeypatch)
        assert dispatch(argv + ["--out", str(tmp_path / "out")]) in (0, 1)
        assert len(calls) == 1


class TestExitCodes:
    def test_unknown_schema(self, tmp_path):
        bad = write(tmp_path / "bad.json", {"schema": "mystery/9"})
        assert dispatch(["verify", bad]) == 2

    def test_usage_error(self):
        assert dispatch(["folner", "search", "--group", "zd1"]) == 2

    def test_deeply_nested_json_is_exit_two(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert dispatch(["verify", str(deep)]) == 2
        assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"

    def test_internal_crash_is_one_line_exit_two(self, tmp_path, monkeypatch, capsys):
        def crash(*_):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_verify_certificate_doc", crash)
        cert = write(tmp_path / "cert.json", {"schema": ser.FOLNER_CERT_SCHEMA})
        assert dispatch(["verify", cert]) == 2
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_bad_theta(self, tmp_path):
        assert (
            dispatch(
                ["folner", "search", "--group", "zd1", "--coloring", "parity",
                 "--e", "1", "--theta", "nonsense"]
            )
            == 2
        )


class TestSharedParser:
    """``dispatch`` builds its parser once per process and reuses it."""

    def run(self, capsys, argv):
        code = dispatch(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_sequence_matches_fresh_parsers(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        z = IntegerLattice(1)
        cover = Coloring(GroundSet(z.ball(3)), tuple(v[0] % 2 for v in z.ball(3)), 1)
        cert = build_certificate(z, z.ball(2), [(1,)], cover.partition(), Fraction(1, 2))
        write(tmp_path / "cert.json", ser.certificate_to_json(cert))
        runs = [
            ["folner", "search", "--group", "zd1"],  # usage error: no --theta
            ["verify", "cert.json"],
            ["folner", "search", "--group", "free2", "--coloring", "first-letter",
             "--e", "a;b", "--theta", "9/10", "--strategy", "local", "--budget", "30",
             "--seed", "3", "--mode", "sym"],
            ["folner", "search", "--group", "zd1", "--coloring", "parity", "--e", "1;-1",
             "--theta", "9/10"],
        ]
        monkeypatch.setattr(cli, "_PARSER", None)
        shared = [self.run(capsys, runs[0])]
        parser = cli._PARSER
        shared += [self.run(capsys, argv) for argv in runs[1:]]
        assert parser is not None and cli._PARSER is parser
        fresh = []
        for argv in runs:
            monkeypatch.setattr(cli, "_PARSER", build_parser())
            fresh.append(self.run(capsys, argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 1, 0]
        assert "the following arguments are required: --theta" in shared[0][2]
        # the default search kept none of the local search's flags
        manifest = json.loads(shared[3][1])["manifest"]
        assert (manifest["argv"], manifest["seed"]) == (runs[3], 0)
        assert shared[3][2] == "PASS: |F| = 11, min ratio = 10/11 (6 candidates)\n"  # radii 0..5

    def test_patched_handler_is_seen_after_the_first_build(self, monkeypatch, capsys):
        dispatch(["verify"])  # a usage error, after which the parser exists
        assert cli._PARSER is not None
        monkeypatch.setattr(cli, "_cmd_verify", lambda args, argv: 7)
        assert dispatch(["verify", "nowhere.json"]) == 7
        capsys.readouterr()


def leaf_parsers(parser, path=()):
    """(subcommand path, parser) for every parser that runs a handler."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from leaf_parsers(child, path + (name,))
            return
    yield path, parser


def flags(parser) -> set:
    return {opt for action in parser._actions for opt in action.option_strings}


class TestOutputRule:
    """``--out`` writes the document and ``--json`` replaces the summary, on
    every subcommand that registers them."""

    ARGV = {
        ("cover",): ["cover", "refines", "--coarse", "cover.json", "--fine", "fine.json"],
        ("mu",): ["mu", "--cover", "cover.json", "--left", "left.json", "--right", "right.json"],
        ("match",): ["match", "--graph", "graph.json", "--deficiency"],
        ("folner", "search"): ["folner", "search", "--group", "zd1", "--coloring", "parity",
                               "--e", "1;-1", "--theta", "9/10", "--max-radius", "10"],
        ("folner", "adversary"): ["folner", "adversary", "--group", "free2",
                                  "--f", "1;a;A;b;B", "--e", "a", "--budget", "50"],
        ("folner", "net"): ["folner", "net", "--group", "z6.json", "--u", "0;1"],
        ("folner", "mono"): ["folner", "mono", "--group", "zd1", "--window", "win.json",
                             "--cover", "pairs.json", "--e", "0;1"],
        ("means",): ["means", "rationalize", "--alpha", "alpha.json", "--theta", "1/100"],
        ("ramsey", "check"): ["ramsey", "check", "--a", "a.json", "--b", "b.json",
                              "--c", "b.json", "--eps", "1/2"],
        ("sweep",): ["sweep", "--group", "zd1", "--theta-grid", "1/2:1:1/4",
                     "--max-radius", "3"],
    }

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch, covering_file):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        line = [str(i) for i in range(-5, 6)]
        files = {
            "fine.json": {"ground": ["a", "b", "c", "d"], "blocks": [["a"], ["b"], ["c"], ["d"]]},
            "left.json": ["a", "b"],
            "right.json": ["b", "c"],
            "graph.json": {"left": ["a", "b", "c"], "right": ["1", "2"],
                           "edges": [[0, 0], [1, 0], [2, 1]]},
            "z6.json": cyclic_group(6).describe(),
            "win.json": line,
            "pairs.json": {"ground": line, "blocks": [line[i:i + 2] for i in range(10)]},
            "alpha.json": {"weights": {"x": "1/3", "y": "2/3"}},
            "a.json": {"points": ["p"], "dist": [["0"]]},
            "b.json": {"points": ["x", "y"], "dist": [["0", "1"], ["1", "0"]]},
        }
        for name, obj in files.items():
            write(tmp_path / name, obj)

    def run(self, capsys, argv):
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code in (0, 1), (argv, captured.err)
        return captured.out

    def test_argv_for_every_output_flag(self):
        with_output = {
            path for path, parser in leaf_parsers(build_parser())
            if flags(parser) & {"--out", "--json"}
        }
        assert with_output == set(self.ARGV)

    def test_every_out_writes_the_document(self, inputs, tmp_path, capsys):
        for path, parser in leaf_parsers(build_parser()):
            if "--out" not in flags(parser):
                continue
            argv = self.ARGV[path]
            self.run(capsys, argv + ["--out", "out.file"])
            written = (tmp_path / "out.file").read_text()
            if path == ("sweep",):  # the CSV goes to sweep.csv without --out
                self.run(capsys, argv)
                assert written == (tmp_path / "sweep.csv").read_text()
                continue
            doc = json.loads(written)
            if "manifest" in doc:  # the manifest records argv, --out included
                assert doc["manifest"]["argv"][-2:] == ["--out", "out.file"]
                del doc["manifest"]["argv"][-2:]
                written = ser.canonical_dumps(doc)
            shown = self.run(capsys, argv + ["--json"] * ("--json" in flags(parser)))
            assert written == shown, path

    def test_every_json_replaces_the_summary(self, inputs, capsys):
        for path, parser in leaf_parsers(build_parser()):
            if "--json" not in flags(parser):
                continue
            argv = self.ARGV[path]
            summary = self.run(capsys, argv)
            shown = self.run(capsys, argv + ["--json"])
            assert summary and json.loads(shown), path
            assert summary.splitlines()[0] not in shown.splitlines(), path

    COVER = {
        "refines": ARGV[("cover",)],
        "star-refines": ["cover", "star-refines", "--coarse", "cover.json", "--fine", "fine.json"],
        "join": ["cover", "join", "--u", "cover.json", "--v", "fine.json"],
        "star": ["cover", "star", "--u", "cover.json", "-n", "2"],
    }

    def test_every_cover_action(self, inputs, tmp_path, capsys):
        (cover,) = [p for path, p in leaf_parsers(build_parser()) if path == ("cover",)]
        (actions,) = [a.choices for a in cover._actions if a.dest == "action"]
        assert set(actions) == set(self.COVER)
        for action, argv in self.COVER.items():
            shown = self.run(capsys, argv)
            assert self.run(capsys, argv + ["--out", "out.file"]) == (
                shown if action.endswith("refines") else ""
            ), action
            written = (tmp_path / "out.file").read_text()
            if action.endswith("refines"):  # --json replaces the summary
                assert self.run(capsys, argv + ["--json"]) == written != shown, action
                continue
            assert json.loads(shown) and written == shown, action  # the document is the output
            assert dispatch(argv + ["--json"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cover {action} prints no summary; --json does not apply\n"

    @pytest.mark.parametrize(
        "path",
        [("mu",), ("match",), ("cover",)],
        ids=["mu", "match", "cover-refines"],
    )
    def test_out_writes_the_file_with_a_summary(self, inputs, tmp_path, capsys, path):
        argv = self.ARGV[path]
        summary = self.run(capsys, argv)
        assert self.run(capsys, argv + ["--out", "doc.json"]) == summary
        assert (tmp_path / "doc.json").read_text() == self.run(capsys, argv + ["--json"])

    @pytest.mark.parametrize(
        "path, flag",
        [
            (("folner", "check"), "--json"),
            (("folner", "check"), "--out"),
            (("folner", "search"), "--json"),
            (("folner", "adversary"), "--strategy"),
            (("folner", "adversary"), "--plateau"),
            (("ramsey", "check"), "--json"),
            (("means",), "--json"),
            (("sweep",), "--json"),
            (("verify",), "--json"),
            (("verify",), "--out"),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, tuple) else v.lstrip("-"),
    )
    def test_removed_flag_is_usage_error(self, inputs, tmp_path, capsys, path, flag):
        self.run(capsys, self.ARGV[("folner", "search")] + ["--out", "cert.json"])
        argv = self.ARGV.get(path, [*path, "cert.json"])
        extra = [flag, "v.json"] if flag == "--out" else [flag]
        if path == ("folner", "check"):
            # The subcommand itself is gone: with or without the flag, the
            # parser refuses it before reading any arguments.
            assert dispatch(argv) == 2
            assert "invalid choice: 'check'" in capsys.readouterr().err
            refusal = "invalid choice: 'check'"
        else:
            self.run(capsys, argv)
            refusal = f"unrecognized arguments: {' '.join(extra)}"
        assert dispatch(argv + extra) == 2
        assert refusal in capsys.readouterr().err
        assert not (tmp_path / "v.json").exists()


class TestRealProcess:
    def test_module_entrypoint_replays_bit_identically(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        import matchcover

        # The children run in their own directories, where a relative
        # PYTHONPATH (such as "src") does not resolve; put the absolute parent
        # of the package under test first so they import this very copy.
        package_file = str(Path(matchcover.__file__).resolve())
        pythonpath = [str(Path(package_file).parent.parent)]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        env = dict(
            os.environ,
            SOURCE_DATE_EPOCH="1690000000",
            PYTHONPATH=os.pathsep.join(pythonpath),
        )
        probe = [
            sys.executable, "-c",
            "import pathlib, matchcover;"
            " print(pathlib.Path(matchcover.__file__).resolve())",
        ]
        argv = [
            sys.executable, "-m", "matchcover",
            "folner", "search", "--group", "zd1", "--coloring", "parity",
            "--e", "1", "--theta", "4/5", "--max-radius", "6",
            "--out", "cert.json",
        ]
        blobs = []
        for name in ("one", "two"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            imported = subprocess.run(
                probe, cwd=run_dir, env=env, capture_output=True, text=True
            )
            assert imported.stdout.strip() == package_file, imported.stderr
            proc = subprocess.run(argv, cwd=run_dir, env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            check = subprocess.run(
                [sys.executable, "-m", "matchcover", "verify", "cert.json"],
                cwd=run_dir, env=env, capture_output=True,
            )
            assert check.returncode == 0, check.stderr
            blobs.append((run_dir / "cert.json").read_bytes())
        assert blobs[0] == blobs[1]
