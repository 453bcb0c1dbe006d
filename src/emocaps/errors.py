"""`EmocapsError`, which every refusal of the package raises with the
message the CLI prints, and its subclass `NumericError` for NaN or Inf: a
subclass exists only when a caller catches it by name. `text_lines` and
`whole_text`, the readers of every text file the program is given, a line
at a time or at once (`json_object` reads a manifest with the latter);
`parse_blocks` and `two_column_blocks`, the one parse of a vocabulary's or
a lexicon's text, a file's or a manifest's, by whole_text's line-end rule,
`integer_cells`, which reads its ids or counts, and `holds_space`, the
whitespace that no word holds; `replacing`, the one writer, through its TMP_SUFFIX sibling."""

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
TMP_SUFFIX = ".tmp"  # `replacing` writes <path> as <path>.tmp, renamed onto <path> once whole
# ASCII's str.isspace characters but the tab and the line ends that cut a two-column text into cells
ASCII_SPACES = " \x0b\x0c\x1c\x1d\x1e\x1f"
SPACED = "holds whitespace, which no token holds"  # the refusal of a word that `holds_space`


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


def parse_blocks(where, text: str, parse):
    """`parse(where, text, BLOCK_CHARS)` of a file's text or a manifest's
    string, with \\r\\n and \\r read as \\n as `whole_text` reads them, or when
    a block fails a check, `parse(where, text, 0)`, whose errors then name
    the failing line as `<where>:<line>:`."""
    if "\r" in text:  # one memchr scan: a search for "\r\n" took 1.4 ms of a 50k-word vocabulary's 28
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return parse(where, text, BLOCK_CHARS)
    except EmocapsError:
        return parse(where, text, 0)


def two_column_blocks(where, text: str, block_chars: int, layout: str, words_at: int):
    """Cut `text`, a file read by `whole_text` or a manifest's string, into
    blocks of whole lines of just over `block_chars` characters, one line a
    block at 0. Yield for each block that holds a non-blank row the number
    of its first line, its non-blank rows, its words, column `words_at`, and
    the other column's `integer_cells`. A row with no tab or more than one,
    or an integer cell that is not, raises `<where>:<line>: expected
    <layout>, got <row>`, naming the block's first line and row."""
    start, first = 0, 1
    while start < len(text):
        end = text.find("\n", start + block_chars) + 1 or len(text)
        block = text[start:end]
        rows = list(filter(None, block.split("\n")))
        if rows:
            cells = "\t".join(rows).split("\t")
            try:
                if len(cells) != 2 * len(rows) or not all(map(contains, rows, repeat("\t"))):
                    raise ValueError("a row holds no tab or more than one")
                ints, words = integer_cells(cells[1 - words_at :: 2]), cells[words_at::2]
            except ValueError:
                raise EmocapsError(f"{where}:{first}: expected {layout}, got {rows[0]!r}") from None
            yield first, rows, words, ints
        start, first = end, first + block.count("\n")


def integer_cells(cells: list[str]) -> list[int]:
    """The ints written in `cells`, each an optional `-` and ASCII digits,
    checked at once. Any other cell raises ValueError, also one that `int`
    takes: `+7`, ` 7`, `1_000`, `\u0663`."""
    digits = "".join(cells).replace("-", "")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("a cell is not an optional '-' and ASCII digits")
    return list(map(int, cells))  # which refuses a misplaced '-'


def may_hold_space(text: str) -> bool:
    """Whether a cell of two-column text `text` may hold whitespace: an
    ASCII text that holds none of ASCII_SPACES is cleared at once."""
    return not text.isascii() or any(map(text.__contains__, ASCII_SPACES))


def holds_space(text: str) -> bool:
    """Whether `text`, a word or words joined, holds a str.isspace character,
    which no token holds. ASCII is searched for them; other text is tested a
    character at a time only past a space or a character that is not
    printable: no other whitespace is printable, and U+200B is none."""
    if text.isascii():
        return any(map(text.__contains__, "\t\n\r" + ASCII_SPACES))
    return not (text.isprintable() and " " not in text) and any(map(str.isspace, text))


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
    tmp = Path(f"{path}{TMP_SUFFIX}")
    handle = open(tmp, mode, encoding=None if "b" in mode else "utf-8")  # before the try: a clash removes nothing
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
