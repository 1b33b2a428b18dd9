import pathlib
import subprocess
import sys

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
