import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pairpois as pp

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"

MODULE = '''"""Module docstring
over two lines."""
# a comment-only line

import math  # a trailing comment keeps the line


class Box:
    """Class docstring."""

    def area(self, side):
        """Function docstring,

        with a blank line inside."""
        text = """a string that is
not a docstring"""
        return side * side + len(text) + math.pi
'''


def test_count_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "box.py").write_text(MODULE)
    (tmp_path / "empty.py").write_text("# nothing but a comment\n\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    rows = [line.split() for line in out.splitlines()]
    # import, class, def, the two lines of the assignment, return
    assert rows == [["6", "box.py"], ["0", "empty.py"], ["6", "total"]]


def test_public_surface_covers_readme_perfbench_and_tools():
    # every pp.<name> the README, the benchmark harness and the tools use
    # is exported, and every exported name resolves
    root = TOOL.parents[1]
    files = [root / "README.md", *sorted((root / "perfbench").glob("*.py")),
             *sorted((root / "tools").glob("*.py"))]
    used = {name for path in files
            for name in re.findall(r"\bpp\.([A-Za-z_]\w*)", path.read_text())
            if not name.startswith("__")}
    assert used, "no pp.<name> references found"
    assert sorted(used - set(pp.__all__)) == []
    for name in pp.__all__:
        assert hasattr(pp, name), name
    assert len(set(pp.__all__)) == len(pp.__all__)


def test_bundled_data_regenerates_byte_identically(tmp_path, monkeypatch):
    # the data README's provenance: the seed search of make_bundled_data
    # reproduces the shipped CSVs exactly
    path = TOOL.parent / "make_bundled_data.py"
    spec = importlib.util.spec_from_file_location("make_bundled_data", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT_DIR", tmp_path)
    tool.main()
    shipped = pathlib.Path(pp.__file__).resolve().parent / "data"
    for name in ("greece_imd.csv", "italy_imd.csv"):
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


def test_fit_digest_compare_prints_the_cases_that_differ(tmp_path):
    # numbers in text are compared one by one when the words match; other
    # text differences are named as such, and equal cases (NaN included)
    # are not listed
    tool = TOOL.parent / "fit_digest.py"
    a = {"g": {"same": [1.0, float("nan")], "moved": [2.0, "loglik -963.25"],
               "text": ["fit ok"]},
         "h": {"same": ["x 1"]}}
    b = {"g": {"same": [1.0, float("nan")], "moved": [2.0, "loglik -963.5"],
               "text": ["fit failed"]},
         "h": {"same": ["x 1"]}}
    paths = []
    for name, values in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(values))
        paths.append(str(tmp_path / name))
    out = subprocess.run([sys.executable, str(tool), "--compare", *paths],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "g: 2 of 3 cases differ; largest abs 0.25, largest rel 0.000259",
        "  moved: abs 0.25, rel 0.000259",
        "  text: text or shape differs",
        "h: 0 of 1 cases differ; largest abs 0, largest rel 0",
        "  (none)",
    ]
