"""The public surface: every exported name has a user outside the library."""

import ast
import json
import os
import re
import subprocess
import sys
import sysconfig
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
    # 37 distinct names; a new export has to earn its place here
    assert len(set(kstacks.__all__)) == len(kstacks.__all__) == 37


def test_readme_python_blocks_give_their_commented_results():
    # the README's python blocks run in order in one namespace; a line with a
    # comment is an expression, and the comment is the literal of its value
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    namespace, pending, checked = {}, [], 0
    for block in re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M):
        for line in block.splitlines():
            code, _, shown = line.partition("#")
            if not shown:
                pending.append(line)
                continue
            exec("\n".join(pending), namespace)
            pending = []
            assert eval(code, namespace) == ast.literal_eval(shown.strip()), line
            checked += 1
    exec("\n".join(pending), namespace)
    assert checked == 2


def test_command_line_imports_only_the_standard_library():
    # kstacks promises no runtime dependencies: importing the command line in
    # a fresh interpreter may load only kstacks and standard-library modules
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import kstacks.cli\n"
        "new = sorted(set(sys.modules) - before)\n"
        "print(json.dumps({n: getattr(sys.modules[n], '__file__', None) for n in new}))\n"
    )
    src = str(Path(kstacks.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        check=True,
    )
    loaded = json.loads(proc.stdout)
    stdlib = [Path(sysconfig.get_paths()[key]).resolve() for key in ("stdlib", "platstdlib")]
    outside = {
        name: path
        for name, path in loaded.items()
        if name != "kstacks"
        and not name.startswith("kstacks.")
        and path is not None
        and not any(Path(path).resolve().is_relative_to(root) for root in stdlib)
    }
    assert any(name.startswith("kstacks.") for name in loaded)
    assert outside == {}
