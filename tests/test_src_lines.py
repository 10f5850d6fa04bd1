"""tools/src_lines.py, which ROADMAP.md's line counts of src/ rest on."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def test_src_lines_prints_both_counts(tmp_path):
    """Every line counts once; only the two code lines count as code: not
    the docstring's two lines, the comment or the blank line."""
    (tmp_path / "mod.py").write_text(
        '"""A module\n'
        'docstring."""\n'
        "# a comment\n"
        "\n"
        "x = 1\n"
        "y = x + 1\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "6 lines, 2 code-only\n"
