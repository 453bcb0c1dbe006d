"""numpy is the only runtime dependency: every absolute import in the
package names the standard library, numpy or the package itself. And
errors.text_lines is the one reader of the text files the program is
given: no other module opens a file to read it as text."""

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


def _reads_text(call: ast.Call) -> bool:
    """Whether `call` is `open(path, mode)` or `path.open(mode)` with a mode
    that reads text (or one only known at run time), or `.read_text(...)`."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "read_text":
        return True
    if name != "open":
        return False
    args = call.args[1:] if isinstance(func, ast.Name) else call.args
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else ast.Constant("r"))
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return True
    return "b" not in mode.value and ("r" in mode.value or "+" in mode.value)


def test_only_errors_reads_text_files():
    # the emoticon list ships inside the package: it is no file a user gives
    allowed = {("textprep.py", "_load_emoticons")}
    reads = []
    for path in sorted(Path(emocaps.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        owner = {}  # id of a node -> name of the innermost function holding it
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        reads += [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _reads_text(node) and (path.name, owner.get(id(node))) not in allowed
        ]
    assert reads == []
