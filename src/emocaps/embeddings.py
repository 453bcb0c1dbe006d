"""Vocabulary construction, pretrained word2vec loading, and the embedding
lookup with its backward pass.

The lookup realizes the one-hot matrix product (token-indicator matrix times
the embedding table) as a row gather; the backward pass scatter-adds output
gradients into the touched rows and returns only those rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    DimensionMismatch, IdOutOfRange, MalformedHeader, MalformedLine, TruncatedFile, integer_cells, read_blocks, replacing,
    text_lines, two_column_blocks,
)
from .textprep import TAG_SURFACES

PAD = "<pad>"
UNK = "<unk>"

# Fixed id layout: <pad>=0, <unk>=1, then the normalization tags in their
# TAG_SURFACES order. Corpus words follow, most frequent first.
RESERVED = (PAD, UNK) + tuple(TAG_SURFACES.values())


@dataclass
class Vocabulary:
    word_to_id: dict[str, int]
    id_to_word: list[str]

    def __len__(self) -> int:
        return len(self.id_to_word)

    @classmethod
    def build(cls, token_sequences) -> "Vocabulary":
        """Assign ids from training-split token sequences (reserved ids first)."""
        counts = Counter()
        for sequence in token_sequences:
            counts.update(sequence)
        id_to_word = list(RESERVED)
        seen = set(RESERVED)
        for word, _ in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
            if word not in seen:
                id_to_word.append(word)
                seen.add(word)
        return cls({w: i for i, w in enumerate(id_to_word)}, id_to_word)

    def encode(self, surfaces) -> list[int]:
        unk = self.word_to_id[UNK]
        return [self.word_to_id.get(s, unk) for s in surfaces]

    def save(self, path) -> None:
        with replacing(path) as handle:
            self.write(handle)

    def write(self, handle) -> None:
        handle.writelines(f"{idx}\t{word}\n" for idx, word in enumerate(self.id_to_word))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read "id<TAB>word" lines with ids 0, 1, 2, ...; blank lines are
        skipped, and a word holds no tab. Ids 0 and 1 must be <pad> and
        <unk>, which training and encoding rely on. A repeated word is an
        error, as only one of its ids could be reached. Errors name the
        file and line."""
        return read_blocks(path, cls._parse)

    @classmethod
    def _parse(cls, path, text: str, block_chars: int) -> "Vocabulary":
        """The vocabulary in `text`, parsed by str calls a block at a time.
        A block that fails a check raises the error of its first line, which
        is the failing line when a block is one line (`block_chars` 0)."""
        id_to_word, word_to_id = [], {}
        for lineno, rows, columns in two_column_blocks(text, block_chars):
            try:
                id_texts, words = columns  # None: a row holds no tab or more than one
                ids = integer_cells(id_texts)
            except (TypeError, ValueError):
                raise MalformedLine(f"{path}:{lineno}: expected id<TAB>word, got {rows[0]!r}") from None
            if ids != list(range(len(id_to_word), len(id_to_word) + len(ids))):
                raise MalformedHeader(f"{path}:{lineno}: non-contiguous vocabulary id: {rows[0]!r}")
            id_to_word += words
            if ids[0] < 2 and id_to_word[:2] != list(RESERVED[: min(len(id_to_word), 2)]):
                raise MalformedHeader(f"{path}:{lineno}: id {ids[0]} must be {RESERVED[ids[0]]!r}, got {words[0]!r}")
            word_to_id.update(zip(words, ids))
            if len(word_to_id) != len(id_to_word):
                raise MalformedLine(f"{path}:{lineno}: word {words[0]!r} repeats id {id_to_word.index(words[0])}")
        if len(id_to_word) < 2:
            end = text.count("\n") + 1 + (text[-1:] not in ("", "\n"))  # the line after the last, one with no newline too
            raise MalformedHeader(f"{path}:{end}: file ends before id {len(id_to_word)}, {RESERVED[len(id_to_word)]!r}")
        return cls(word_to_id, id_to_word)


@dataclass
class EmbeddingTable:
    """Row-indexed dense vectors; row 0 (<pad>) is all zeros and stays zero."""

    weights: np.ndarray  # (|V|, dim)


def load_word2vec(path, fmt: str, words, dim: int) -> dict[str, np.ndarray]:
    """Parse a word2vec file into word -> float32 vector for the words in
    `words` (first occurrence wins); every entry is read and checked.

    Formats: text = header "count dim", then "word v1 ... vd" per line;
    binary = same ASCII header, then per entry the UTF-8 word bytes terminated
    by a space followed by dim little-endian float32 values. The header's
    cells are read by `errors.integer_cells`, and one whose width is not
    `dim` raises DimensionMismatch before any entry is read. A word that is
    not UTF-8, a text value that is not `_is_float`, one not finite in float32,
    or anything but blank lines (newlines, binary) after the header's count of
    entries raises MalformedLine naming the file and the entry, line or byte.
    """
    loaders = {"binary": _load_word2vec_binary, "text": _load_word2vec_text}
    if fmt not in loaders:
        raise ValueError(f"unknown word2vec format: {fmt!r}")
    return loaders[fmt](path, words, dim)


def _parse_header(header: str, path, dim: int) -> int:
    """The entry count of file `path`'s "count dim" header, of width `dim`."""
    if not header.strip():
        raise MalformedHeader(f"{path}: empty file")
    where, parts = f"{path}:1", header.split()
    if len(parts) != 2:
        raise MalformedHeader(f"{where}: expected 'count dim', got {header!r}")
    try:
        count, width = integer_cells(parts)
    except ValueError as exc:
        raise MalformedHeader(f"{where}: non-integer header fields: {header!r}") from exc
    if count < 0 or width <= 0:
        raise MalformedHeader(f"{where}: invalid header values: {header!r}")
    if width != dim:
        raise DimensionMismatch(f"{where}: vectors are {width}-dimensional, expected {dim}")
    return count


def _load_word2vec_binary(path, words, dim: int) -> dict[str, np.ndarray]:
    table: dict[str, np.ndarray] = {}
    with open(path, "rb") as handle:
        count = _parse_header(handle.readline().decode("utf-8", errors="replace").removesuffix("\n"), path, dim)
        vector_bytes = 4 * dim
        for entry in range(count):
            word_chars = bytearray()
            while True:
                ch = handle.read(1)
                if not ch:
                    raise TruncatedFile(f"{path}: file ended after {entry} of {count} entries")
                if ch == b" ":
                    break
                if ch != b"\n":  # some writers put a newline before each word
                    word_chars.extend(ch)
            payload = handle.read(vector_bytes)
            if len(payload) != vector_bytes:
                raise TruncatedFile(f"{path}: vector truncated after {entry} of {count} entries")
            try:
                word = word_chars.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLine(f"{path}: entry {entry + 1} of {count}: word {bytes(word_chars)!r} is not UTF-8 ({exc.reason})") from None
            vector = np.frombuffer(payload, dtype="<f4")
            if not np.isfinite(vector).all():
                raise MalformedLine(f"{path}: entry {entry + 1} of {count}: word {word!r} has a non-finite value")
            if word in words and word not in table:
                table[word] = vector.astype(np.float32)
        while rest := handle.read(1 << 16):  # the C tool ends each vector with \n; anything else is one entry too many
            if extra := len(rest.lstrip(b"\n")):
                raise MalformedLine(f"{path}: byte {handle.tell() - extra} follows the header's {count} entries")
    return table


def _load_word2vec_text(path, words, dim: int) -> dict[str, np.ndarray]:
    table: dict[str, np.ndarray] = {}
    with text_lines(path) as lines:
        lineno, header = next(lines, (1, ""))
        count = _parse_header(header, path, dim)
        for lineno, line in islice(lines, count):
            # the word2vec C tool ends each line with "vd \n"
            parts = line.rstrip().split(" ")
            word, values = parts[0], parts[1:]
            if len(values) != dim:
                raise DimensionMismatch(f"{path}:{lineno}: entry {word!r} has {len(values)} values, expected {dim}")
            try:  # _is_float's first test, of every value at once
                if "_" in (numbers := " ".join(values)) or not (numbers.isascii() and numbers.isprintable()):
                    raise ValueError(numbers)
                with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, refused below
                    vector = np.array([float(v) for v in values], dtype=np.float32)
            except ValueError:
                bad = next(v for v in values if not _is_float(v))
                raise MalformedLine(f"{path}:{lineno}: entry {word!r} has a non-numeric value {bad!r}") from None
            finite = np.isfinite(vector)
            if not finite.all():
                bad = values[np.argmin(finite)]
                raise MalformedLine(f"{path}:{lineno}: entry {word!r} has a non-finite value {bad!r}")
            if word in words:
                table.setdefault(word, vector)
        if lineno <= count:
            raise TruncatedFile(f"{path}:{lineno + 1}: file ended after {lineno - 1} of {count} entries")
        if extra := next((n for n, line in lines if line.strip()), None):
            raise MalformedLine(f"{path}:{extra}: a line follows the header's {count} entries")
    return table


def _is_float(text: str) -> bool:
    """Whether `text` is ASCII, printable, free of `_` and a `float`, which alone takes `1_0`."""
    if not (text.isascii() and text.isprintable()) or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def build_embedding(vocab: Vocabulary, raw_table: dict[str, np.ndarray], dim: int, seed: int) -> EmbeddingTable:
    """Assemble the trainable table: pretrained rows where available, seeded
    uniform(-0.05, 0.05) rows for everything else, zeros for <pad>."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-0.05, 0.05, size=(len(vocab), dim))
    for idx, word in enumerate(vocab.id_to_word):
        if word in raw_table:
            weights[idx] = raw_table[word]
    weights[vocab.word_to_id[PAD]] = 0.0
    return EmbeddingTable(weights=weights)


def _checked_ids(ids, size: int) -> np.ndarray:
    """ids as an intp array; IdOutOfRange lists the distinct ids outside [0, size)."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise IdOutOfRange(f"ids must lie in [0, {size}), got {np.unique(ids[(ids < 0) | (ids >= size)]).tolist()}")
    return ids


def embed(ids, table: EmbeddingTable) -> np.ndarray:
    """Gather rows of the table; ids=[] yields a (0, dim) matrix."""
    ids = _checked_ids(ids, table.weights.shape[0])
    return table.weights[ids]


def embed_backward(ids, grad_output: np.ndarray, vocab_size: int):
    """Scatter-add output gradients into the rows the ids touched; returns
    (rows, values): the sorted unique ids and one gradient row for each.
    Repeats accumulate in order, so each row's sum is bitwise the one a
    dense (vocab_size, dim) scatter gives."""
    ids = _checked_ids(ids, vocab_size)
    rows, inverse = np.unique(ids, return_inverse=True)
    values = np.zeros((rows.size, grad_output.shape[1]), dtype=grad_output.dtype)
    np.add.at(values, inverse, grad_output)
    return rows, values
