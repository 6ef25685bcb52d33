"""The public surface: every exported name has a user outside the library."""

import re
from pathlib import Path

import kstacks

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_is_used():
    # the README, the command line, the benchmark and the tests are the
    # library's users; a name none of them mentions should not be exported
    files = [ROOT / "README.md", ROOT / "src" / "kstacks" / "cli.py"]
    files += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    text = "\n".join(f.read_text(encoding="utf-8") for f in files)
    unused = [name for name in kstacks.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []
