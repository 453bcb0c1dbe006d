"""numpy is the only runtime dependency: every absolute import in the
package names the standard library, numpy or the package itself. And
errors holds the one reader and the one writer of files: no other module
opens a file to read it as text (errors.text_lines), nor writes or
renames one (errors.replacing)."""

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


def _open_mode(call: ast.Call):
    """The mode of `open(path, mode)` or `path.open(mode)`, "r" when it is
    not given, or None when it is only known at run time."""
    args = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def _call_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _reads_text(call: ast.Call) -> bool:
    """Whether `call` is `open(path, mode)` or `path.open(mode)` with a mode
    that reads text (or one only known at run time), or `.read_text(...)`."""
    name = _call_name(call)
    if name == "read_text":
        return True
    if name != "open":
        return False
    mode = _open_mode(call)
    return mode is None or ("b" not in mode and ("r" in mode or "+" in mode))


def _writes(call: ast.Call) -> bool:
    """Whether `call` opens a file to write, append or create it (or with a
    mode only known at run time), calls `.write_text` or `.write_bytes`,
    or renames a file with `os.replace` or `os.rename`."""
    name = _call_name(call)
    if name in ("write_text", "write_bytes"):
        return True
    if name in ("replace", "rename"):  # str.replace is no write: only os's own
        owner = getattr(call.func, "value", None)
        return isinstance(owner, ast.Name) and owner.id == "os"
    if name != "open":
        return False
    mode = _open_mode(call)
    return mode is None or any(c in mode for c in "wax+")


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


def test_only_errors_writes_files():
    writes = []
    for path in sorted(Path(emocaps.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        writes += [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _writes(node)
        ]
    assert writes == []
