"""`EmocapsError`, which every refusal of the package raises with the
message the CLI prints, and its subclass `NumericError` for NaN or Inf: a
subclass exists only when a caller catches it by name. `text_lines` and
`whole_text`, the readers of every text file the program is given, a line
at a time or at once (`json_object` reads a manifest with the latter);
`read_blocks` and `two_column_blocks`, which read a two-column file (a
vocabulary or a lexicon) once and cut it into blocks of whole lines for its
parser, and `integer_cells`, which reads its ids or counts; `replacing`,
the one writer."""

import json
import os
from collections import Counter
from contextlib import contextmanager
from itertools import repeat
from operator import contains
from pathlib import Path

# Characters of whole lines that a two-column file is parsed in at once: the
# rows of one block are alive at a time, not those of the whole file. Larger
# blocks parse no faster and leave more freed strings holding allocator memory.
BLOCK_CHARS = 1 << 14


class EmocapsError(Exception):
    """Base class for all package errors."""


class NumericError(EmocapsError):
    """NaN or Inf appeared in a tensor."""


@contextmanager
def text_lines(path):
    """Yield the lines of UTF-8 text file `path`, after a leading byte-order
    mark, as (number from 1, line) pairs. A line ends only at \\n, \\r\\n
    or \\r, which is cut off. A byte that is not UTF-8 raises EmocapsError
    naming the file and the line of that byte; only a failed read pays for
    the line: it reads the file again."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            yield enumerate(map(str.removesuffix, handle, repeat("\n")), 1)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def whole_text(path) -> str:
    """The text of UTF-8 file `path`, read at once, after a leading
    byte-order mark and with each \\r\\n and \\r read as \\n: its
    `split("\\n")` holds the lines `text_lines` yields. A byte that is not
    UTF-8 raises the same EmocapsError as there."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def read_blocks(path, parse):
    """`parse(path, text, BLOCK_CHARS)` of the text of file `path`, read
    once by `whole_text`. When a block fails a check, the parse runs again
    over the same text one line a block, `parse(path, text, 0)`, so that
    the block its error names is the failing line."""
    text = whole_text(path)
    try:
        return parse(path, text, BLOCK_CHARS)
    except EmocapsError:
        return parse(path, text, 0)


def two_column_blocks(text: str, block_chars: int):
    """Cut `text`, a file read by `whole_text`, into blocks of whole lines
    of just over `block_chars` characters, one line a block at 0. Yield for
    each block that holds a non-blank row the number of its first line, its
    non-blank rows, and its two columns as lists, or None when some row
    holds no tab or more than one."""
    start, first = 0, 1
    while start < len(text):
        end = text.find("\n", start + block_chars) + 1 or len(text)
        block = text[start:end]
        rows = list(filter(None, block.split("\n")))
        if rows:
            cells = "\t".join(rows).split("\t")
            one_tab = len(cells) == 2 * len(rows) and all(map(contains, rows, repeat("\t")))
            yield first, rows, ((cells[0::2], cells[1::2]) if one_tab else None)
        start, first = end, first + block.count("\n")


def integer_cells(cells: list[str]) -> list[int]:
    """The ints written in `cells`, each an optional `-` and ASCII digits,
    checked at once. Any other cell raises ValueError, also one that `int`
    takes: `+7`, ` 7`, `1_000`, `\u0663`."""
    digits = "".join(cells).replace("-", "")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("a cell is not an optional '-' and ASCII digits")
    return list(map(int, cells))  # which refuses a misplaced '-'


def _not_utf8(path) -> EmocapsError:
    """The EmocapsError naming file `path` and the line of its first byte
    that is not UTF-8, found by reading the file again."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        reason = f"can't decode byte {data[exc.start]:#04x} at file offset {exc.start} ({exc.reason})"
        return EmocapsError(f"{path}:{line}: not UTF-8 text: {reason}")
    return EmocapsError(f"{path}: not UTF-8 text")  # it changed since the failed read


def json_object(path) -> dict:
    """The JSON object in checkpoint manifest `path`, a text file. Text that
    is not JSON or that `json` cannot read (nested too deep, an int of too
    many digits), a key repeated in any object of it, or a value other than
    an object raises EmocapsError naming the file."""

    def once(pairs):
        repeated = [key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
        if repeated:
            raise EmocapsError(f"{path}: repeated manifest key {repeated[0]!r}")
        return dict(pairs)

    text = whole_text(path)
    try:
        loaded = json.loads(text, object_pairs_hook=once)
    except (ValueError, RecursionError) as exc:
        raise EmocapsError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(loaded, dict):
        raise EmocapsError(f"{path}: manifest is not a JSON object")
    return loaded


@contextmanager
def replacing(path, mode="x"):
    """Yield `<path>.tmp`, created for writing, as UTF-8 text or with mode
    "xb" as bytes; rename it onto `path` when the block ends, or remove it
    if the block raises. `path` keeps its previous bytes until then. An
    existing `<path>.tmp` is not ours to write or remove: FileExistsError."""
    tmp = Path(f"{path}.tmp")
    handle = open(tmp, mode, encoding=None if "b" in mode else "utf-8")  # before the try: a clash removes nothing
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
