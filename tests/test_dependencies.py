"""numpy is the only runtime dependency: every absolute import in the
package names the standard library, numpy or the package itself. And
errors holds the readers and the one writer of files: no other module
opens a file to read it as text (errors.text_lines, a line at a time, or
errors.whole_text, at once), nor writes or renames one
(errors.replacing). Only the two streaming readers, of labeled datasets
and of text word2vec files, read a line at a time: the vocabulary and the
lexicon are read whole, once. And every function the benchmark traces or breaks on
purpose is still there under its name. And the package pins
BLAS to one thread before anything it imports can load numpy. And a
training run has one step path: one place clips and applies Adam, and one
runs training passes. And the run's arrays have one owner: one place
builds the training state, and no step allocates the batch sums. And
the package has two exception classes, both in errors: EmocapsError and
NumericError. And input is checked where it enters the model: the numeric
layers, the confusion count and the word2vec loader's dispatch raise
nothing. And errors alone spells the line-end rule and the name of the
file an output is written through: no other module holds "\\r" or ".tmp".
And errors alone spells the whitespace rule, and embeddings alone names
the word2vec formats. And every source file parses as the oldest Python
the package supports, the lowest one CI runs, and CI also runs the oldest
numpy it supports. And every function, method and class of the package
has a caller outside the tests."""

import ast
import builtins
import re
import sys
import types
from pathlib import Path

import emocaps
from emocaps import embeddings, errors

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "emocaps"}
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_blas_threads_are_pinned_before_any_import():
    """`emocaps/__init__.py` sets each BLAS thread variable to "1" with
    os.environ.setdefault, and imports nothing but `os` before those calls:
    numpy reads the variables once, when it loads."""
    tree = ast.parse(Path(emocaps.__file__).read_text("utf-8"))
    pins = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "os.environ.setdefault"
    ]
    assert sorted(ast.literal_eval(ast.unparse(call.args[0])) for call in pins) == [
        "MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"
    ]
    assert all(ast.literal_eval(ast.unparse(call.args[1])) == "1" for call in pins)
    last_pin = max(call.lineno for call in pins)
    before = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node.lineno < last_pin
    ]
    assert before == ["import os"]


def _open_mode(call: ast.Call):
    """The mode of `open(path, mode)` or `path.open(mode)`, "r" when it is
    not given, or None when it is only known at run time."""
    args = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def _call_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _owners(tree) -> dict:
    """id of a node -> name of the innermost function holding it."""
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    return owner


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
    # the emoticon list ships inside the package: no file a user gives
    allowed = {("textprep.py", "_load_emoticons")}
    reads = []
    for path in sorted(Path(emocaps.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        owner = _owners(tree)
        reads += [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _reads_text(node) and (path.name, owner.get(id(node))) not in allowed
        ]
    assert reads == []


def test_only_the_streaming_readers_read_by_line():
    calls = []
    for path in sorted(Path(emocaps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        owner = _owners(tree)
        calls += [
            (path.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _call_name(node) == "text_lines"
        ]
    assert sorted(calls) == [("cli.py", "load_dataset"), ("embeddings.py", "_load_word2vec_text")]


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


def test_benchmark_span_targets_resolve():
    """Every function the benchmark's tracer wraps, and every one its smoke
    test breaks to see the output check fail, exists under its name: the
    tracer counts a missing one instead of failing, and this suite does not
    run the smoke test. spans.py (standard library only) runs from its
    source text, so no bytecode is written beside it."""
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text("utf-8"), str(SPANS), "exec"), spans.__dict__)
    seams = [("emocaps.training", "predict_class"), ("emocaps.training", "clip_gradients"), ("emocaps.textprep", "spell_correct")]
    targets = [(module, path) for module, path, _, _ in spans.TARGETS] + seams
    assert [f"{module}.{path}" for module, path in targets if spans._resolve(module, path) is None] == []


def test_one_step_path():
    """Only `training.step` clips and calls Adam, and only
    `training.batch_gradients` runs a training pass (`forward_full` given
    `rngs`): a new optimizer or a parallel batch replaces these two rather
    than forking them."""
    calls = []
    for path in sorted(Path(emocaps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        owner = _owners(tree)
        calls += [
            (path.name, owner.get(id(node)), _call_name(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (_call_name(node) in ("clip_gradients", "adam_step")
                 or _call_name(node) == "forward_full" and any(kw.arg in ("rngs", None) for kw in node.keywords))
        ]
    assert sorted(calls) == [
        ("training.py", "batch_gradients", "forward_full"),
        ("training.py", "step", "adam_step"),
        ("training.py", "step", "clip_gradients"),
    ]


def test_one_owner_of_the_run():
    """Only `training.start_training` builds a `TrainState`, and neither
    `batch_gradients` nor `step` calls `np.zeros*`: the batch sums are the
    state's, built once and zeroed in place by every batch."""
    builds, allocations = [], []
    for path in sorted(Path(emocaps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        owner = _owners(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, where = _call_name(node) or "", (path.name, owner.get(id(node)))
            if name == "TrainState":
                builds.append(where)
            elif name.startswith("zeros") and where in {("training.py", "batch_gradients"), ("training.py", "step")}:
                allocations.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert builds == [("training.py", "start_training")]
    assert allocations == []


def test_two_exception_classes():
    """errors.py defines EmocapsError and its subclass NumericError, which
    the CLI maps to exit 4, and no module defines another: a subclass exists
    only when a caller catches it by name, and a new refusal raises
    EmocapsError with a message that names what it refuses."""
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    classes, aliases = [], []
    for path in sorted(Path(emocaps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        classes += [(path.name, node) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        aliases += [(alias.name, alias.asname) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names if alias.asname]
    known = 0
    while known != len(exceptions):  # a class whose base is an exception class, the package's own too, is one
        known = len(exceptions)
        found = {(name, node.name) for name, node in classes
                 if any(ast.unparse(base).split(".")[-1] in exceptions for base in node.bases)}
        exceptions |= {cls for _, cls in found} | {asname for name, asname in aliases if name in exceptions}
    assert sorted(found) == [("errors.py", "EmocapsError"), ("errors.py", "NumericError")]


def _raisers(path: Path) -> set:
    """Names of the functions in `path` that hold a `raise` statement, a
    method as `Class.method`."""
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    methods = {id(fn): f"{cls.name}." for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
    return {methods.get(id(fn), "") + fn.name for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Raise) for node in ast.walk(fn))}


def test_only_entry_points_check_their_input():
    """The numeric layers trust their arguments: no function in nn.py or
    capsule.py raises, nor do `embed`, `embed_backward` and
    `load_word2vec`, whose format argparse's choices check, in
    evaluation.py only `label_index` raises, and in training.py only the
    config, the model's builders, the gradient clipping, the epoch loop and
    the checks of what enters the model (`train`'s datasets and
    `predict_dataset`'s sequences) raise. A new check of model input goes
    into `_check_ids` or `_check_dataset`, not into a layer."""
    package = Path(emocaps.__file__).parent
    assert _raisers(package / "nn.py") == set()
    assert _raisers(package / "capsule.py") == set()
    assert _raisers(package / "embeddings.py") & {"embed", "embed_backward", "load_word2vec"} == set()
    assert _raisers(package / "evaluation.py") == {"label_index"}
    assert _raisers(package / "training.py") == {
        "TrainConfig.__post_init__", "ModelParams.from_tensors", "init_model", "clip_gradients",
        "_check_ids", "predict_dataset", "_check_dataset", "run_epoch",
    }


def _string_constants(owner: str):
    """(file name, line, value) of every str constant, f-string parts
    included and docstrings not, in each module of the package but `owner`."""
    for path in sorted(Path(emocaps.__file__).parent.glob("*.py")):
        if path.name == owner:
            continue
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                      and ast.get_docstring(node, clean=False) is not None}
        yield from ((path.name, node.lineno, node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings)


def test_only_errors_spells_line_ends_and_the_tmp_name():
    """No module but errors.py holds a string constant, f-string parts
    included and docstrings not, with a "\\r" or ".tmp" in it: the line-end
    rule is `errors.parse_blocks`'s and `errors.whole_text`'s, and the name
    of the file an output is written through is `errors.TMP_SUFFIX`."""
    found = [f"{name}:{line}: {value!r}" for name, line, value in _string_constants("errors.py")
             if "\r" in value or ".tmp" in value]
    assert found == []


def test_only_errors_spells_the_whitespace_rule():
    """No module but errors.py calls or names `isspace`, nor holds a string
    constant with a character of `errors.ASCII_SPACES` but the space, which
    messages hold: a word of a vocabulary or a lexicon, read from a file, a
    manifest or a mapping, is refused by `errors.holds_space` alone."""
    controls = set(errors.ASCII_SPACES) - {" "}
    found = [f"{name}:{line}: {value!r}" for name, line, value in _string_constants("errors.py")
             if controls & set(value)]
    for path in sorted(Path(emocaps.__file__).parent.glob("*.py")):
        if path.name != "errors.py":
            tree = ast.parse(path.read_text("utf-8"), filename=str(path))
            found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "isspace"]
    assert found == []


def test_only_embeddings_names_the_word2vec_formats():
    """No module but embeddings.py holds a string constant equal to a key of
    `embeddings.WORD2VEC_FORMATS`: build-vocab reads its choices and its
    default from the loader's table, so a format is added in one place."""
    formats = set(embeddings.WORD2VEC_FORMATS)
    found = [f"{name}:{line}: {value!r}" for name, line, value in _string_constants("embeddings.py") if value in formats]
    assert found == []


def test_sources_parse_as_the_oldest_supported_python():
    """The lowest `python-version` of the CI workflow is the floor of
    `requires-python`, and every `.py` file under src/ and tests/ parses
    with that version's grammar (`ast.parse`'s `feature_version`, so
    `except*` fails on 3.10), on whichever Python runs the suite."""
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text("utf-8"), re.M)
    matrix = re.search(r"^ *python-version: \[(.*)\]$", (ROOT / ".github" / "workflows" / "tests.yml").read_text("utf-8"), re.M)
    lowest = min(tuple(map(int, v.strip(' "').split("."))) for v in matrix.group(1).split(","))
    assert lowest == tuple(map(int, floor.groups()))
    failing = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        try:
            ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=lowest)
        except SyntaxError as exc:
            failing.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failing == []


def test_ci_runs_the_oldest_supported_numpy():
    """One CI job installs `numpy==X.Y.*` on the requires-python floor,
    X.Y being the `numpy>=` floor of pyproject's dependencies: the other
    jobs install the newest numpy, so without it the floor is never run."""
    pyproject = (ROOT / "pyproject.toml").read_text("utf-8")
    floor = re.search(r'^ *"numpy>=(\d+\.\d+)",?$', pyproject, re.M).group(1)
    python = re.search(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.M).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text("utf-8")
    jobs = re.findall(r'python-version: "(\d+\.\d+)"\n(?:.*\n)*?.*"numpy==(\d+\.\d+)\.\*"', workflow)
    assert jobs == [(python, floor)]


# Called from outside the package's source: pyproject's console script. Dunder
# methods, which the interpreter calls, are exempt by their names.
ENTRY_POINTS = {"cli.entry"}
# The standalone-file form of the vocabulary: the benchmark writes its
# vocabulary file with save and reads it with load (perfbench/gen.py and
# perfbench/run.py), while the package reads the text of a manifest.
BENCHMARK_ONLY = {"embeddings.Vocabulary.load", "embeddings.Vocabulary.save"}


def _definitions(tree, prefix=""):
    """(qualified name, node) of every function and class in `tree`, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        name = prefix
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{node.name}."
            yield name[:-1], node
        yield from _definitions(node, name)


def test_every_definition_has_a_caller():
    """Every function, method and class defined in src/emocaps/ is named
    outside its own definition, as a name or an attribute read, somewhere
    in src/ or in perfbench/*.py. A name that only tests/ reach is dead
    code, or an oracle that belongs in tests/. Names are matched without
    resolving them, so the guard misses a definition whose name some other
    object also has. pyproject's scripts point at ENTRY_POINTS and dunder
    methods are called by the interpreter: both are exempt. The names of
    BENCHMARK_ONLY are read in perfbench/ alone."""
    package = Path(emocaps.__file__).parent
    reads = {}  # name -> [(file, node)] of each read of it
    for path in [*sorted(package.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), filename=str(path))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and isinstance(getattr(node, "ctx", None), ast.Load):
                reads.setdefault(name, []).append((path.parent.name, node))
    pyproject = (ROOT / "pyproject.toml").read_text("utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert {f"{module}.{name}" for module, name in re.findall(r'"emocaps\.(\w+):(\w+)"', scripts.group(1))} == ENTRY_POINTS
    uncalled, benchmark_only = [], set()
    for path in sorted(package.glob("*.py")):
        for name, node in _definitions(ast.parse(path.read_text("utf-8"), filename=str(path))):
            qualified, short = f"{path.stem}.{name}", name.rsplit(".", 1)[-1]
            if qualified in ENTRY_POINTS or short.startswith("__") and short.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            where = {folder for folder, read in reads.get(short, []) if id(read) not in inside}
            if not where:
                uncalled.append(qualified)
            elif where == {"perfbench"}:
                benchmark_only.add(qualified)
    assert uncalled == []
    assert benchmark_only == BENCHMARK_ONLY


def test_every_data_file_ships_in_the_wheel():
    """Every file under src/emocaps/data/ matches a glob of pyproject's
    `[tool.setuptools.package-data]` for the package, read with a regex
    (Python 3.10 has no tomllib). The tests run on the source tree, so
    they pass with a data file the wheel leaves out, while the installed
    package fails at import: textprep reads emoticons.txt then."""
    pyproject = (ROOT / "pyproject.toml").read_text("utf-8")
    table = re.search(r"^\[tool\.setuptools\.package-data\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    globs = re.findall(r'"([^"]+)"', re.search(r"^emocaps = \[(.*?)\]", table.group(1), re.M | re.S).group(1))
    package = ROOT / "src" / "emocaps"
    shipped = {path for pattern in globs for path in package.glob(pattern)}
    data = sorted(path for path in (package / "data").rglob("*") if path.is_file())
    assert data
    assert [str(path.relative_to(package)) for path in data if path not in shipped] == []
