"""numpy is the only runtime dependency: every absolute import in the
package names the standard library, numpy or the package itself."""

import ast
import sys
from pathlib import Path

import emocaps

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "emocaps"}


def test_imports_are_stdlib_numpy_or_emocaps():
    outside = []
    for path in sorted(Path(emocaps.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert outside == []
