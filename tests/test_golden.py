"""The golden harness (``tests/golden.py``) on synthetic goldens: what
``check`` compares, what an update rewrites, what ``diff`` reports, and
that the registry owns every file under ``tests/golden/``."""

import importlib
import json
import math
import pathlib
import sys

import pytest

from tests import golden

#: What the synthetic goldens' ``compute`` returns (patched per test).
TREE, TEXT = None, None


def computed_tree():
    return TREE


def computed_text():
    return TEXT


def compute(monkeypatch, **values):
    for name, value in values.items():
        monkeypatch.setattr(sys.modules[__name__], name, value)


CASE_NAMES = ("a", "b")


def computed_case(name):
    return (name, len(name))


def tree_golden(tmp_path, content, indent=1) -> golden.Golden:
    g = golden.Golden(
        "tree.json", "tests.test_golden:computed_tree", indent=indent,
        ensure_ascii=False, directory=tmp_path,
    )
    g.path.write_bytes(g.serialise(content).encode("utf-8"))
    return g


def text_golden(tmp_path, text: str) -> golden.Golden:
    g = golden.Golden(
        "text.txt", "tests.test_golden:computed_text", indent=None,
        directory=tmp_path,
    )
    g.path.write_bytes(text.encode("utf-8"))
    return g


PINNED = {
    "x": {"n": 1, "f": 0.25, "s": "é"},
    "y": {"rows": [[1, 2.5], [3, 4.5]], "flag": True},
    "z": {"deep": {"er": [0.1, {"est": "a\nb\nc\n"}]}},
}


class TestCheck:
    def test_equal_content_passes_at_every_depth(self, tmp_path):
        g = tree_golden(tmp_path, PINNED)
        g.check(PINNED)
        g.check(PINNED["y"], "y")
        g.check({"er": [0.1, {"est": "a\nb\nc\n"}]}, "z", "deep")

    def test_tuples_compare_as_the_lists_the_file_stores(self, tmp_path):
        g = tree_golden(tmp_path, PINNED)
        g.check({"rows": [(1, 2.5), (3, 4.5)], "flag": True}, "y")

    def test_a_mismatch_fails_and_names_the_first_path(self, tmp_path):
        g = tree_golden(tmp_path, PINNED)
        moved = {"er": [0.1, {"est": "a\nB\nc\n"}]}
        with pytest.raises(AssertionError) as err:
            g.check(moved, "z", "deep")
        assert str(err.value) == (
            'tree.json moved at ["z"]["deep"]["er"][1]["est"]: lines 2 -> 2'
        )
        with pytest.raises(AssertionError) as err:
            g.check({"n": 1, "f": 0.5, "s": "e"}, "x")
        assert str(err.value) == 'tree.json moved at ["x"]["f"]: 0.25 -> 0.5 (+1)'

    def test_an_extra_or_missing_item_is_named(self, tmp_path):
        g = tree_golden(tmp_path, PINNED)
        with pytest.raises(AssertionError, match=r'\["y"\]\["rows"\]\[2\]: <absent> -> \[5\]'):
            g.check({"rows": [[1, 2.5], [3, 4.5], [5]], "flag": True}, "y")
        with pytest.raises(AssertionError, match=r'\["x"\]\["s"\]: "é" -> <absent>'):
            g.check({"n": 1, "f": 0.25}, "x")

    def test_an_unpinned_case_fails(self, tmp_path):
        g = tree_golden(tmp_path, PINNED)
        with pytest.raises(KeyError, match="w"):
            g.check(1, "w")
        with pytest.raises(TypeError):
            g.check(1, "x", "n", "m")

    def test_a_text_golden_compares_byte_for_byte(self, tmp_path):
        g = text_golden(tmp_path, "one\ntwo\nthree\n")
        g.check("one\ntwo\nthree\n")
        for got, lines in (("one\ntwo\nthree", "3 -> 3"), ("one\r\ntwo\nthree\n", "1 -> 1"),
                           ("one\ntwo \nthree\n", "2 -> 2")):
            with pytest.raises(AssertionError) as err:
                g.check(got)
            assert str(err.value) == f"text.txt moved at .: lines {lines}"
        with pytest.raises(AssertionError, match=r"lines 2 -> 2"):
            g.check("one\n2\nthree\n")

    def test_a_text_file_is_read_without_newline_translation(self, tmp_path):
        g = text_golden(tmp_path, "one\r\ntwo\n")
        g.check("one\r\ntwo\n")
        with pytest.raises(AssertionError):
            g.check("one\ntwo\n")


class TestUpdate:
    def test_a_subset_rewrites_only_its_keys(self, tmp_path):
        g = tree_golden(tmp_path, PINNED)
        before = g.text()
        g.check({"rows": [[9, 9.5]], "flag": False}, "y", update=True)
        after = g.text()
        assert g.load() == {**PINNED, "y": {"rows": [[9, 9.5]], "flag": False}}
        # Every byte outside y's block is where it was.
        head = before[: before.index(' "y"')]
        tail = before[before.index(' "z"'):]
        assert after.startswith(head) and after.endswith(tail)
        assert after == g.serialise(g.load())

    def test_a_nested_case_is_merged_in_place(self, tmp_path):
        g = tree_golden(tmp_path, {"shapes": [1, 2], "cases": {"a": 1, "b": 2}})
        g.check(3, "cases", "b", update=True)
        g.check(4, "cases", "c", update=True)
        assert g.load() == {"shapes": [1, 2], "cases": {"a": 1, "b": 3, "c": 4}}

    def test_an_unchanged_update_keeps_every_byte(self, tmp_path):
        g = tree_golden(tmp_path, PINNED, indent=2)
        before = g.path.read_bytes()
        for key, value in PINNED.items():
            g.check(value, key, update=True)
        assert g.path.read_bytes() == before

    def test_a_missing_file_is_created(self, tmp_path):
        g = tree_golden(tmp_path, {})
        g.path.unlink()
        g.check([1, 2], "a", update=True)
        assert g.text() == '{\n "a": [\n  1,\n  2\n ]\n}\n'

    def test_a_whole_file_update_replaces_it(self, tmp_path):
        g = text_golden(tmp_path, "old\n")
        g.check("new\n", update=True)
        assert g.path.read_bytes() == b"new\n"

    def test_the_module_check_updates_only_when_the_switch_is_set(
        self, tmp_path, monkeypatch
    ):
        g = tree_golden(tmp_path, PINNED)
        monkeypatch.setitem(golden.REGISTRY, "synthetic", g)
        with pytest.raises(AssertionError):
            golden.check("synthetic", 2, "x", "n")
        assert g.load() == PINNED
        monkeypatch.setattr(golden, "UPDATE", True)
        golden.check("synthetic", 2, "x", "n")
        assert g.load()["x"]["n"] == 2


class TestDiff:
    def test_a_changed_type_is_a_change_even_when_equal(self):
        old, new = {"i": 1, "b": True}, {"i": 1.0, "b": 1}
        assert old == new
        assert list(golden.changes(old, new)) == [(("b",), True, 1), (("i",), 1, 1.0)]

    def test_changes_walk_dicts_lists_and_absent_items(self):
        old = {"a": {"b": [1, 2.0, 3]}, "gone": 1, "same": [1, {"k": "v"}], "t": "x"}
        new = {"a": {"b": [1, 2.5]}, "added": {"k": 0}, "same": [1, {"k": "v"}],
               "t": 1}
        assert list(golden.changes(old, new)) == [
            (("a", "b", 1), 2.0, 2.5),
            (("a", "b", 2), 3, golden.ABSENT),
            (("added",), golden.ABSENT, {"k": 0}),
            (("gone",), 1, golden.ABSENT),
            (("t",), "x", 1),
        ]

    def test_relative_change(self):
        assert golden.relative_change(2.0, 2.5) == 0.25
        assert golden.relative_change(-4, -5) == -0.25
        assert golden.relative_change(0, 0.0) == 0.0
        assert golden.relative_change(0, 3) == math.inf
        for old, new in ((True, False), ("1", "2"), (1, None), (golden.ABSENT, 1)):
            assert golden.relative_change(old, new) is None

    def test_describe_gives_lines_when_either_text_has_several(self):
        assert golden.describe("a", "a\nb") == "lines 1 -> 1-2"
        assert golden.describe("a\nb", "a") == "lines 1-2 -> 1"

    def test_describe_shortens_long_values(self):
        assert golden.describe("x" * 100, "y") == '"' + "x" * 78 + '… -> "y"'
        assert golden.describe([1], golden.ABSENT) == "[1] -> <absent>"

    def test_changed_lines(self):
        assert golden.changed_lines("a\nb\nc\n", "a\nb\nc\n") == []
        assert golden.changed_lines("a\nb\nc\nd\n", "a\nX\nY\nd\ne\n") == [
            "2-3 -> 2-3", "(none after 4) -> 5",
        ]

    def test_report_names_every_moved_path_with_old_new_and_relative_change(
        self, tmp_path, capsys, monkeypatch
    ):
        tree = tree_golden(tmp_path, PINNED)
        text = text_golden(tmp_path, "one\ntwo\nthree\n")
        old_tree, old_text = tree.text(), text.text()
        new_tree = {
            "x": {"n": 1, "f": 0.3, "s": "é", "new": None},
            "y": {"rows": [[1, 2.5], [3, 4.5], [6]], "flag": True},
            "z": {"deep": {"er": [-0.2, {"est": "a\nb\nc\n"}]}},
        }
        new_text = "one\n2\nthree\n"
        compute(monkeypatch, TREE=new_tree, TEXT=new_text)
        assert golden.report({"tree": tree, "text": text}) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[:6] == [
            "tree.json:",
            '  ["x"]["f"]: 0.25 -> 0.3 (+0.2)',
            '  ["x"]["new"]: <absent> -> null',
            '  ["y"]["rows"][2]: <absent> -> [6]',
            '  ["z"]["deep"]["er"][0]: 0.1 -> -0.2 (-3)',
            "text.txt:",
        ]
        assert lines[6] == "  .: lines 2 -> 2"
        assert lines[7] == "digests moved:"
        assert lines[8] == (
            f"  tree.json: {golden.digest(old_tree)} -> "
            f"{golden.digest(tree.serialise(new_tree))}"
        )
        assert lines[9] == (
            f"  text.txt: {golden.digest(old_text)} -> {golden.digest(new_text)}"
        )
        assert lines[10:] == [
            "golden diff: 2 of 2 goldens moved, 5 paths changed, "
            "largest relative change 3",
        ]
        # The report writes nothing.
        assert (tree.text(), text.text()) == (old_tree, old_text)

    def test_report_says_when_nothing_moved(self, tmp_path, capsys, monkeypatch):
        tree = tree_golden(tmp_path, PINNED)
        compute(monkeypatch, TREE=json.loads(json.dumps(PINNED)))
        assert golden.report({"tree": tree}) == 0
        assert capsys.readouterr().out == "golden diff: no golden moved (1 recomputed)\n"

    def test_unknown_names_and_commands_exit_2(self, capsys):
        assert golden.main(["diff", "no_such_golden"]) == 2
        assert golden.main(["update"]) == 2
        assert golden.main([]) == 2
        assert "usage: python -m tests.golden diff [chaos_serve|" in capsys.readouterr().err


class TestRegistry:
    def test_trees_serialise_sorted_at_their_indent(self, tmp_path):
        g = tree_golden(tmp_path, {}, indent=2)
        assert g.serialise({"b": [1], "a": "é"}) == '{\n  "a": "é",\n  "b": [\n    1\n  ]\n}\n'

    def test_a_golden_with_cases_computes_each(self, tmp_path):
        g = golden.Golden(
            "cases.json", "tests.test_golden:computed_case", cases="CASE_NAMES",
            directory=tmp_path,
        )
        assert g.run() == {"a": ["a", 1], "b": ["b", 1]}

    def test_every_file_has_exactly_one_owner_and_every_owner_its_file(self):
        files = sorted(p.name for p in golden.GOLDEN_DIR.iterdir())
        owned = sorted(g.file for g in golden.REGISTRY.values())
        assert owned == files
        assert all(g.directory == golden.GOLDEN_DIR for g in golden.REGISTRY.values())

    @pytest.mark.parametrize("name", sorted(golden.REGISTRY))
    def test_each_golden_names_a_function_and_round_trips_its_file(self, name):
        g = golden.REGISTRY[name]
        module, function = g.compute.split(":")
        assert callable(getattr(importlib.import_module(module), function))
        assert g.serialise(g.load()) == g.text()

    def test_only_the_harness_reads_the_switch_or_names_the_directory(self):
        switch = "UPDATE_" + "GOLDEN"
        here = pathlib.Path(__file__).parent
        for path in here.rglob("*.py"):
            if path.name in ("golden.py", "test_golden.py"):
                continue
            text = path.read_text(encoding="utf-8")
            assert switch not in text, path
            assert '/ "golden"' not in text, path
        harness = (here / "golden.py").read_text(encoding="utf-8")
        assert harness.count(f'os.environ.get("{switch}")') == 1
