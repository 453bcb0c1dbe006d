import builtins
import io
import random
import re
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from emocaps import embeddings, errors
from emocaps.cli import build_parser, main
from emocaps.embeddings import (
    PAD,
    RESERVED,
    UNK,
    EmbeddingTable,
    Vocabulary,
    build_embedding,
    embed,
    embed_backward,
    load_word2vec,
)
from emocaps.errors import EmocapsError
from emocaps.textprep import Lexicon
from vocab_oracle import load_lines

BOM = b"\xef\xbb\xbf"
# words holding whitespace, refused as no token could reach them; a line rule
# that broke lines at one of them would name another line
SPACED_WORDS = ("x\u2028y", "p\x0bq", "r\x1cs", " sp", "a\xa0b", "\x85", "\u3000")


def dense(rows, values, num_rows):
    """The full (num_rows, dim) gradient of `embed_backward`'s rows and
    values, zeros outside its rows."""
    out = np.zeros((num_rows,) + values.shape[1:], dtype=values.dtype)
    out[rows] = values
    return out


class TestVocabulary:
    def test_reserved_layout(self):
        vocab = Vocabulary.build([])
        assert vocab.id_to_word[:2] == [PAD, UNK]
        assert vocab.word_to_id[PAD] == 0
        assert vocab.word_to_id[UNK] == 1
        assert vocab.word_to_id["<targetword>"] == len(RESERVED) - 1
        assert len(vocab) == len(RESERVED)

    def test_reserved_ids_are_pinned(self):
        """Every vocabulary starts with these ten words at these ids; a
        reorder of the tag table would renumber every vocabulary and
        invalidate every checkpoint's vocabulary fingerprint."""
        assert RESERVED == (
            "<pad>", "<unk>", "<url>", "<user>", "<email>", "<phone>", "<date>", "<time>", "<money>", "<targetword>"
        )

    def test_frequency_then_alpha_order(self):
        vocab = Vocabulary.build([["b", "a", "b"], ["c", "a"]])
        words = vocab.id_to_word[len(RESERVED) :]
        # a and b both occur twice; alphabetical breaks the tie
        assert words == ["a", "b", "c"]

    def test_encode_maps_oov_to_unk(self):
        vocab = Vocabulary.build([["hello"]])
        ids = vocab.encode(["hello", "mystery"])
        assert ids[0] == vocab.word_to_id["hello"]
        assert ids[1] == vocab.word_to_id[UNK]

    def test_tags_have_fixed_ids_regardless_of_corpus(self):
        a = Vocabulary.build([["x"]])
        b = Vocabulary.build([["y", "z", "<targetword>"]])
        for tag in RESERVED:
            assert a.word_to_id[tag] == b.word_to_id[tag]

    def test_save_load_round_trip(self, tmp_path):
        """save writes text(), the id<TAB>word line of each word in id
        order, and load reads it back."""
        vocab = Vocabulary.build([["b", "a", "b"]])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert path.read_bytes() == vocab.text().encode("utf-8") == "".join(
            f"{i}\t{w}\n" for i, w in enumerate([*RESERVED, "b", "a"])).encode("utf-8")
        loaded = Vocabulary.load(path)
        assert loaded.id_to_word == vocab.id_to_word
        assert loaded.word_to_id == vocab.word_to_id

    def test_load_rejects_gaps(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\t<pad>\n2\tskip\n", encoding="utf-8")
        with pytest.raises(EmocapsError, match=f"{path}:2: non-contiguous"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("bad", ["1 <unk>", "one\t<unk>", "\t<unk>"])
    def test_load_names_file_and_line_of_malformed_line(self, tmp_path, bad):
        path = tmp_path / "vocab.tsv"
        path.write_text(f"0\t<pad>\n\n{bad}\n", encoding="utf-8")
        with pytest.raises(EmocapsError, match=f"^{re.escape(f'{path}:3: ')}expected id<TAB>word"):
            Vocabulary.load(path)

    def test_load_rejects_repeated_word(self, tmp_path):
        # keeping one id of the word would leave the other's row unreachable
        path = tmp_path / "vocab.tsv"
        path.write_text("0\t<pad>\n1\t<unk>\n\n2\tcat\n3\tcat\n", encoding="utf-8")
        with pytest.raises(EmocapsError, match=f"^{re.escape(f'{path}:5: ')}word 'cat' repeats id 2$"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"])
    def test_load_lines_end_only_at_newline(self, tmp_path, sep):
        """The line holding `sep` is line 3, and its word is refused whole
        for the whitespace in it."""
        path = tmp_path / "vocab.tsv"
        path.write_bytes(f"0\t<pad>\r\n1\t<unk>\r2\tone{sep}two\n".encode("utf-8"))
        says = f"{path}:3: word {f'one{sep}two'!r} holds whitespace, which no token holds"
        with pytest.raises(EmocapsError, match="^" + re.escape(says) + "$"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("word", SPACED_WORDS)
    def test_load_refuses_a_word_no_token_can_reach(self, tmp_path, word):
        """Tokens are split at every str.isspace character, so a word
        holding one is refused, naming its line, in an ASCII file or not
        and wherever in a large file it is."""
        rows = [f"{i}\t{w}" for i, w in enumerate([*RESERVED[:2], *(f"w{i}" for i in range(2, 5000))])]
        for at in (2, 4999):
            spaced = list(rows)
            spaced[at] = f"{at}\tx{word}{at}"
            path = tmp_path / "vocab.tsv"
            path.write_text("\n".join(spaced) + "\n", encoding="utf-8")
            says = f"{path}:{at + 1}: word {f'x{word}{at}'!r} holds whitespace, which no token holds"
            with pytest.raises(EmocapsError, match="^" + re.escape(says) + "$"):
                Vocabulary.load(path)

    def test_load_keeps_words_that_hold_no_whitespace(self, tmp_path):
        """A character that is not printable but no whitespace is part of a
        token, so a word holding it loads: U+200B, U+00AD, U+200D."""
        words = ["<pad>", "<unk>", "a\u200bb", "soft\xadhyphen", "\U0001f469\u200d\U0001f4bb", "café"]
        path = tmp_path / "vocab.tsv"
        path.write_text("".join(f"{i}\t{w}\n" for i, w in enumerate(words)), encoding="utf-8")
        assert Vocabulary.load(path).id_to_word == words
        assert "a\u200bb".split() == ["a\u200bb"]

    def test_load_skips_blank_lines_and_refuses_tabs_in_words(self, tmp_path):
        # encoding looks up whitespace-split tokens, so a word with a tab could never be found
        path = tmp_path / "vocab.tsv"
        path.write_text("0\t<pad>\n1\t<unk>\n\n2\ta\n", encoding="utf-8")
        assert Vocabulary.load(path).id_to_word == ["<pad>", "<unk>", "a"]
        path.write_text("0\t<pad>\n1\t<unk>\n\n2\ta\n3\tb\tc\n", encoding="utf-8")
        says = f"{path}:5: expected id<TAB>word, got " + repr("3\tb\tc")
        with pytest.raises(EmocapsError, match="^" + re.escape(says) + "$"):
            Vocabulary.load(path)

    @pytest.mark.parametrize(
        "content, where, message",
        [
            ("0\t<pad>\n1\tcat\n2\t<unk>\n", 2, "id 1 must be '<unk>', got 'cat'"),
            ("0\t<unk>\n1\t<pad>\n", 1, "id 0 must be '<pad>', got '<unk>'"),
            ("0\t<pad>\n\n", 3, "file ends before id 1, '<unk>'"),
            ("", 1, "file ends before id 0, '<pad>'"),
        ],
        ids=["no-unk", "swapped", "pad-only", "empty"],
    )
    def test_load_requires_pad_and_unk_first(self, tmp_path, content, where, message):
        # encoding falls back on <unk>, and training pins the <pad> row at id 0
        path = tmp_path / "vocab.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(EmocapsError, match=f"^{path}:{where}: {message}$"):
            Vocabulary.load(path)


# words that the line rule, the tab split or int() could misread
ODD_WORDS = ("a\tb", "\t", "café", "7", "\u200b", "soft\xadhyphen")
TABLESS_WORDS = tuple(word for word in ODD_WORDS if "\t" not in word)
ID_FORMATS = ("{}", "{}", "{}", "0{}")
BAD_ROWS = ("7 cat", "x\tcat", "\tcat", " ", "7", "-1\tcat", "-\tcat", "--1\tcat", "1-\tcat")
DIGITS = "0123456789"
OTHER_DIGITS = (str.maketrans(DIGITS, "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"),  # Arabic-Indic
                str.maketrans(DIGITS, "".join(map(chr, range(0xFF10, 0xFF1A)))))  # fullwidth


def odd_cell(rng, value: int) -> str:
    """`value` written so that `int` reads it, but not as an optional `-`
    and ASCII digits: a plus, a space, an underscore or other digits."""
    text = str(value)
    return rng.choice([f"+{text}", f" {text}", f"{text} ", f"0_{text}", *(text.translate(t) for t in OTHER_DIGITS)])


def vocab_rows(rng, count, odd_words=ODD_WORDS):
    """`count` rows of a well-formed vocabulary, some with odd words or ids."""
    words = list(RESERVED[:2]) + [rng.choice(odd_words) + str(i) if rng.random() < 0.2 else f"w{i}"
                                  for i in range(2, count)]
    return [f"{rng.choice(ID_FORMATS).format(i)}\t{word}" for i, word in enumerate(words[:count])]


def spoil(rng, rows):
    """`rows` with one fault at a random row, or none, and blank lines
    around that row."""
    at = rng.randrange(len(rows) + 1)
    fault = rng.choice(["none", "gap", "repeat", "reserved", "truncate", "bad-row", "tab-word", "shifted-tab", "odd-id",
                        "spaced-word"])
    if fault == "bad-row" or at == len(rows):
        rows.insert(at, rng.choice(BAD_ROWS))
    elif fault == "gap":
        del rows[at]
    elif fault == "repeat" and at > 0:
        rows[at] = rows[at].split("\t", 1)[0] + "\t" + rows[rng.randrange(at)].split("\t", 1)[1]
    elif fault == "reserved":
        rows[min(at, 1)] = rng.choice(["0\t<unk>", "1\t<pad>", "1\tcat", "0\t"])
    elif fault == "truncate":
        del rows[min(at, 2) :]
    elif fault == "tab-word":
        rows[at] += "\tmore"
    elif fault == "shifted-tab" and at + 1 < len(rows):
        shift_tab(rows, at)
    elif fault == "odd-id":
        id_text, word = rows[at].split("\t", 1)
        rows[at] = f"{odd_cell(rng, int(id_text))}\t{word}"
    elif fault == "spaced-word":
        rows[at] += rng.choice(SPACED_WORDS)
    for _ in range(rng.choice([0, 0, 1, 3])):
        rows.insert(min(max(at + rng.randint(-1, 1), 0), len(rows)), "")
    return rows


def shift_tab(rows, at):
    """Move row `at + 1`'s tab and id to the end of row `at`: each row holds
    one tab on average, and the tab-separated cells still count up."""
    rows[at] += "\t" + rows[at + 1].split("\t", 1)[0]
    rows[at + 1] = rows[at + 1].split("\t", 1)[1]


def encode_rows(rng, rows) -> bytes:
    """The rows as a file: mixed line ends, maybe a byte-order mark, no
    final newline, or a byte that is not UTF-8."""
    ends = [rng.choice(["\n", "\n", "\n", "\r\n", "\r"]) for _ in rows]
    if rows and rng.random() < 0.2:
        ends[-1] = ""
    data = "".join(map(str.__add__, rows, ends)).encode("utf-8")
    if rng.random() < 0.2:
        data = BOM + data
    if data and rng.random() < 0.05:
        cut = rng.randrange(len(data))
        data = data[:cut] + b"\xe9" + data[cut:]
    return data


VOCAB_REFUSALS = ("expected id<TAB>word", "non-contiguous vocabulary id", "must be", "repeats id",
                  "file ends before id", "not UTF-8 text", "holds whitespace")


def assert_loads_as_oracle(path):
    """Vocabulary.load gives the line loop's vocabulary, or its error with
    the same type and message, which names the line; the outcome: "loaded"
    or the one of VOCAB_REFUSALS that the message holds."""
    try:
        expected = load_lines(path)
    except EmocapsError as exc:
        with pytest.raises(EmocapsError) as err:
            Vocabulary.load(path)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return next(kind for kind in VOCAB_REFUSALS if kind in str(exc))
    vocab = Vocabulary.load(path)
    assert (vocab.id_to_word, vocab.word_to_id) == expected
    return "loaded"


class TestVocabularyBlocks:
    """Vocabulary.load parses blocks of whole lines; the line loop of
    vocab_oracle is what it must agree with, on every file."""

    @pytest.mark.parametrize("block", [1, 5, 23, errors.BLOCK_CHARS])
    def test_small_files_agree_with_the_line_loop(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(errors, "BLOCK_CHARS", block)
        rng = random.Random(block)
        outcomes = Counter()
        for n in range(200):
            rows = spoil(rng, vocab_rows(rng, rng.randint(0, 12)))
            path = tmp_path / f"vocab{n}.tsv"
            path.write_bytes(encode_rows(rng, rows))
            outcomes[assert_loads_as_oracle(path)] += 1
        assert set(outcomes) == {"loaded", *VOCAB_REFUSALS}, outcomes

    @pytest.mark.parametrize("fault, outcome", [
        (None, "loaded"), ("bad-row", "expected id<TAB>word"), ("blank", "loaded"),
        ("gap", "non-contiguous vocabulary id"), ("repeat", "repeats id"), ("tab-word", "expected id<TAB>word"),
        ("shifted-tab", "expected id<TAB>word"), ("odd-id", "expected id<TAB>word"),
        ("spaced-word", "holds whitespace"),
    ])
    def test_large_file_agrees_at_the_block_boundary(self, tmp_path, fault, outcome):
        """A 50,000-word file with a fault on each side of the line that
        starts its second block, or on that line."""
        rows = vocab_rows(random.Random(50_000), 50_000, TABLESS_WORDS)
        text = "\n".join(rows) + "\n"
        second = text.count("\n", 0, text.find("\n", errors.BLOCK_CHARS) + 1)
        for at in (second - 1, second, second + 1) if fault else (0,):
            spoiled = list(rows)
            if fault == "bad-row":
                spoiled.insert(at, "oops")
            elif fault == "blank":
                spoiled[at:at] = ["", ""]
            elif fault == "gap":
                del spoiled[at]
            elif fault == "repeat":
                spoiled[at] = f"{at}\t" + spoiled[5].split("\t", 1)[1]
            elif fault == "tab-word":
                spoiled[at] += "\tmore"
            elif fault == "shifted-tab":
                shift_tab(spoiled, at)
            elif fault == "odd-id":
                word = spoiled[at].split("\t", 1)[1]
                spoiled[at] = f"{odd_cell(random.Random(at), at)}\t{word}"
            elif fault == "spaced-word":
                spoiled[at] += SPACED_WORDS[at % len(SPACED_WORDS)]
            path = tmp_path / f"vocab{at}.tsv"
            path.write_text("\n".join(spoiled) + "\n", encoding="utf-8")
            assert assert_loads_as_oracle(path) == outcome

    def test_each_loader_opens_its_file_once(self, tmp_path, monkeypatch):
        """A well-formed and a faulty vocabulary, and a well-formed and a
        faulty lexicon, are each opened once: the fault is named from the
        text already read. Only a file that is not UTF-8 is opened again,
        for the bytes that name its line."""
        vocab = BOM + "\r\n\n".join(vocab_rows(random.Random(1), 50_000, TABLESS_WORDS)).encode("utf-8")
        lexicon = "\n".join(f"w{i}\t{i}" for i in range(30_000)).encode("utf-8")
        cases = [  # (loader, file, times opened); a faulty file's last line is bad
            (Vocabulary.load, vocab, 1),
            (Vocabulary.load, vocab + b"\noops\n", 1),
            (Vocabulary.load, vocab + b"\n\xe9\n", 2),
            (Lexicon.from_file, lexicon, 1),
            (Lexicon.from_file, lexicon + b"\nCat\t1\n", 1),
            (Lexicon.from_file, lexicon + b"\n\xe9\t1\n", 2),
        ]
        paths = [tmp_path / f"file{n}.tsv" for n in range(len(cases))]
        for path, (_, data, _) in zip(paths, cases):
            path.write_bytes(data)
        opened, real_open = [], io.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)  # pathlib's reads
        for path, (load, data, opens) in zip(paths, cases):
            del opened[:]
            if data in (vocab, lexicon):
                load(path)
            else:
                line = data.count(b"\n")
                with pytest.raises(EmocapsError, match="^" + re.escape(f"{path}:{line}: ")):
                    load(path)
            assert opened == [path] * opens, path.name

    def test_memory_stays_near_the_vocabulary_kept(self, tmp_path):
        """The traced peak of a load is at most 1.5 times what the loaded
        vocabulary holds: the text is parsed a block at a time, so the
        rows of the whole file never exist at once."""
        path = tmp_path / "vocab.tsv"
        Vocabulary.build([[f"word{i}" for i in range(50_000 - len(RESERVED))]]).save(path)
        tracemalloc.start()
        try:
            vocab = Vocabulary.load(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(vocab) == 50_000
        assert peak <= 1.5 * kept


def write_binary_fixture(path, entries, dim, separator=b"\n"):
    """Hand-rolled word2vec binary writer, independent of the library's;
    a word given as bytes is written as it is."""
    with open(path, "wb") as fh:
        fh.write(f"{len(entries)} {dim}\n".encode())
        for word, vec in entries:
            fh.write((word if isinstance(word, bytes) else word.encode("utf-8")) + b" ")
            fh.write(struct.pack(f"<{dim}f", *vec))
            fh.write(separator)


class TestLoadWord2vec:
    ENTRIES = [("hi", [0.5, -0.5, 1.25]), ("yo", [2.0, 0.125, -3.5])]

    def test_binary_fixture_exact(self, tmp_path):
        path = tmp_path / "vecs.bin"
        write_binary_fixture(path, self.ENTRIES, 3)
        table = load_word2vec(path, "binary", {"hi", "yo"}, 3)
        assert set(table) == {"hi", "yo"}
        for word, vec in self.ENTRIES:
            np.testing.assert_array_equal(table[word], np.asarray(vec, dtype=np.float32))

    def test_binary_without_newline_separators(self, tmp_path):
        path = tmp_path / "vecs.bin"
        write_binary_fixture(path, self.ENTRIES, 3, separator=b"")
        table = load_word2vec(path, "binary", {"hi", "yo"}, 3)
        assert set(table) == {"hi", "yo"}

    def test_text_fixture(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 2\nhi 0.5 -0.5\n", encoding="utf-8")
        table = load_word2vec(path, "text", {"hi"}, 2)
        np.testing.assert_allclose(table["hi"], [0.5, -0.5])

    def test_text_from_the_word2vec_tool(self, tmp_path):
        # the C tool writes each value followed by a space, so lines end "vd \n"
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\nhello 0.1 0.2 0.3 \nworld 1 2 3 \n", encoding="utf-8")
        table = load_word2vec(path, "text", {"hello", "world"}, 3)
        np.testing.assert_array_equal(table["hello"], np.asarray([0.1, 0.2, 0.3], dtype=np.float32))
        np.testing.assert_array_equal(table["world"], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"])
    def test_text_lines_end_only_at_newline(self, tmp_path, sep):
        path = tmp_path / "vecs.txt"
        path.write_bytes(f"3 1\r\none{sep}two 0.5\rcat 1\r\ndog 2\n".encode("utf-8"))
        table = load_word2vec(path, "text", {f"one{sep}two", "cat", "dog"}, 1)
        assert {word: vec.tolist() for word, vec in table.items()} == {f"one{sep}two": [0.5], "cat": [1.0], "dog": [2.0]}

    @pytest.mark.parametrize(
        "fmt, content, dim, where",
        [
            ("text", b"", 1, ": empty file"),
            ("text", b"not a header\nhi 0.5\n", 1, ":1: expected 'count dim'"),
            ("text", b"2 x\n", 1, ":1: non-integer header fields"),
            ("text", b"3 1\nhi 1.0\nhi 2.0\n", 1, ":4: file ended after 2 of 3 entries"),
            ("text", b"2 2\nhi 0.5 0.5\nyo 0.5\n", 2, ":3: entry 'yo' has 1 values, expected 2"),
            ("text", b"1 2\nhello 0.1 abc\n", 2, ":2: entry 'hello' has a non-numeric value 'abc'"),
            # float() alone would read these three lines as [10, 3], [1, 2] and [1, 3]
            ("text", "1 2\nhi 1_0 \u0663\n".encode(), 2, ":2: entry 'hi' has a non-numeric value '1_0'"),
            ("text", b"1 2\nhi 1.0\t 2\n", 2, ":2: entry 'hi' has a non-numeric value '1.0\\t'"),
            ("text", "1 2\nhi 1 \u0663\n".encode(), 2, ":2: entry 'hi' has a non-numeric value '\u0663'"),
            ("text", b"2 2\nhi 1 1\nyo 2 2\nc 3 3\n", 2, ":4: a line follows the header's 2 entries"),
            ("binary", b"", 1, ": empty file"),
            ("binary", b" \n1 2\n", 1, ": empty file"),
            ("binary", b"0 -1\n", 1, ":1: invalid header values"),
            ("binary", b"1 2\nhi", 2, ": file ended after 0 of 1 entries"),
            ("binary", b"1 2\nhi \x00", 2, ": vector truncated after 0 of 1 entries"),
            ("binary", b"1 1\nhi \x00\x00\x80\x3f\nyo \x00\x00\x00\x40\n", 1,
             ": byte 12 follows the header's 1 entries"),
            ("binary", b"1 1\nhi \x00\x00\x80\x3f\n\n\x00", 1, ": byte 13 follows the header's 1 entries"),
            # the width is checked at the header, before a malformed first entry, and with no entries
            ("text", b"1 2\nhi 0.5 abc\n", 3, ":1: vectors are 2-dimensional, expected 3"),
            ("binary", b"1 2\nhi", 3, ":1: vectors are 2-dimensional, expected 3"),
            ("text", b"0 2\n", 3, ":1: vectors are 2-dimensional, expected 3"),
            ("binary", b"0 2\n", 3, ":1: vectors are 2-dimensional, expected 3"),
        ],
        ids=["text-empty", "text-header", "text-header-fields", "text-truncated", "text-short-entry", "text-non-numeric",
             "text-underscore", "text-tab", "text-arabic-digit", "text-extra-entry",
             "binary-empty", "binary-blank-header", "binary-header-values", "binary-word-cut", "binary-vector-cut",
             "binary-extra-entry", "binary-extra-byte",
             "text-width-before-entry", "binary-width-before-entry", "text-width-no-entries", "binary-width-no-entries"],
    )
    def test_errors_name_file_and_line(self, tmp_path, fmt, content, dim, where):
        # every entry is checked, whether its word is kept or not
        path = tmp_path / "vecs"
        path.write_bytes(content)
        for words in (set(), {"hi", "yo", "hello"}):
            with pytest.raises(EmocapsError, match="^" + re.escape(f"{path}{where}")):
                load_word2vec(path, fmt, words, dim)

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("header", ["0_2 \u0663", "+2 3", "2 \uff13", " 2 3_0", "2 -3"],
                             ids=["underscore-arabic", "plus", "fullwidth", "underscore", "negative"])
    def test_header_cells_are_ascii_integers(self, tmp_path, fmt, header):
        """`int` would read 2 entries of width 3 from each of the first
        three; the header's cells follow the vocabulary's rule for ids."""
        path = tmp_path / "vecs"
        if fmt == "binary":
            path.write_bytes(f"{header}\n".encode() + b"".join(w + b" " + bytes(12) for w in (b"hi", b"yo")))
        else:
            path.write_text(f"{header}\nhi 1 2 3\nyo 4 5 6\n", encoding="utf-8")
        says = "invalid header values" if header == "2 -3" else "non-integer header fields"
        with pytest.raises(EmocapsError, match="^" + re.escape(f"{path}:1: {says}: {header!r}") + "$"):
            load_word2vec(path, fmt, {"hi"}, 3)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity", "1e39", "-3.5e38"])
    def test_text_non_finite_value_is_refused(self, tmp_path, value):
        """Every entry is checked, kept or not; a value beyond float32 would
        load as inf, with a RuntimeWarning, which must not escape."""
        path = tmp_path / "vecs.txt"
        path.write_text(f"3 2\nhi 1 2\ncat 0.5 {value}\nyo 3 4\n", encoding="utf-8")
        for words in (set(), {"hi", "cat"}):
            with pytest.raises(EmocapsError, match="^" + re.escape(f"{path}:3: entry 'cat' has a non-finite value {value!r}") + "$"):
                load_word2vec(path, "text", words, 2)

    def test_text_float32_extremes_load(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 2\nhi 3.4028235e38 -1e-50\n", encoding="utf-8")
        table = load_word2vec(path, "text", {"hi"}, 2)
        assert table["hi"].tolist() == [float(np.finfo(np.float32).max), -0.0]

    def test_text_plain_numbers_load(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 6\nhi -0.5 1e-3 .5 5. +2 1E2\n", encoding="utf-8")
        table = load_word2vec(path, "text", {"hi"}, 6)
        assert table["hi"].tolist() == np.asarray([-0.5, 1e-3, 0.5, 5.0, 2.0, 100.0], dtype=np.float32).tolist()

    @pytest.mark.parametrize("fmt, tail", [("text", "\n \n\n\t\n"), ("binary", "\n\n\n")])
    def test_blank_lines_may_follow_the_entries(self, tmp_path, fmt, tail):
        path = tmp_path / "vecs"
        if fmt == "binary":
            write_binary_fixture(path, self.ENTRIES, 3)
        else:
            path.write_text("2 3\n" + "".join(f"{w} {' '.join(map(str, v))}\n" for w, v in self.ENTRIES), encoding="utf-8")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(tail)
        table = load_word2vec(path, fmt, {"hi", "yo"}, 3)
        assert {word: vec.tolist() for word, vec in table.items()} == dict(self.ENTRIES)

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_data_after_the_entries_is_found_in_little_memory(self, tmp_path, fmt):
        """300 KB of newlines after the one entry, then a stray entry and
        2 MB more: the loader names where the entry starts, holding no more
        than a few of its 64 KiB reads."""
        path = tmp_path / "vecs"
        if fmt == "binary":
            write_binary_fixture(path, self.ENTRIES[:1], 3)
        else:
            path.write_text("1 3\nhi 0.5 -0.5 1.25\n", encoding="utf-8")
        start = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\n" * 300_000 + b"yo 1 2 3\n" + b"x" * 2_000_000)
        where = f":{300_000 + 3}: a line" if fmt == "text" else f": byte {start + 300_000}"
        tracemalloc.start()
        try:
            with pytest.raises(EmocapsError, match="^" + re.escape(f"{path}{where} follows the header's 1 entries") + "$"):
                load_word2vec(path, fmt, {"hi"}, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_binary_non_finite_value_is_refused(self, tmp_path, bad):
        path = tmp_path / "vecs.bin"
        write_binary_fixture(path, [("hi", [1.0, 2.0]), ("cat", [bad, 0.5]), ("yo", [3.0, 4.0])], 2)
        for words in (set(), {"hi", "cat"}):
            with pytest.raises(EmocapsError, match="^" + re.escape(f"{path}: entry 2 of 3: word 'cat' has a non-finite value") + "$"):
                load_word2vec(path, "binary", words, 2)

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_keeps_only_the_words_asked_for(self, tmp_path, fmt):
        entries = [("cat", [1.0, 2.0]), ("owl", [3.0, 4.0]), ("cat", [5.0, 6.0]), ("dog", [7.0, 8.0])]
        path = tmp_path / "vecs"
        if fmt == "binary":
            write_binary_fixture(path, entries, 2)
        else:
            path.write_text("4 2\n" + "".join(f"{w} {a} {b}\n" for w, (a, b) in entries), encoding="utf-8")
        table = load_word2vec(path, fmt, {"cat": 5, "dog": 6, "emu": 7}, 2)
        assert {word: vec.tolist() for word, vec in table.items()} == {"cat": [1.0, 2.0], "dog": [7.0, 8.0]}
        assert all(vec.dtype == np.float32 for vec in table.values())

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_memory_follows_the_words_kept_not_the_file(self, tmp_path, fmt):
        """20k vectors of 50 floats hold 4 MB as float32 arrays; kept for
        a 100-word vocabulary, 100 of them hold 20 KB."""
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(20_000, 50)).astype(np.float32)
        path = tmp_path / "vecs"
        if fmt == "binary":
            write_binary_fixture(path, [(f"w{i}", vec) for i, vec in enumerate(vectors)], 50)
        else:
            rows = (f"w{i} " + " ".join(map(repr, vec.tolist())) + "\n" for i, vec in enumerate(vectors))
            path.write_text("20000 50\n" + "".join(rows), encoding="utf-8")
        words = {f"w{i}" for i in range(0, 20_000, 200)}
        tracemalloc.start()
        try:
            table = load_word2vec(path, fmt, words, 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(table) == words
        np.testing.assert_array_equal(table["w200"], vectors[200])
        assert peak < 1_000_000

    def test_binary_and_text_agree(self, tmp_path):
        binary = tmp_path / "vecs.bin"
        text = tmp_path / "vecs.txt"
        write_binary_fixture(binary, self.ENTRIES, 3)
        lines = ["2 3"] + [f"{w} " + " ".join(str(v) for v in vec) for w, vec in self.ENTRIES]
        text.write_text("\n".join(lines) + "\n", encoding="utf-8")
        from_bin = load_word2vec(binary, "binary", {"hi", "yo"}, 3)
        from_txt = load_word2vec(text, "text", {"hi", "yo"}, 3)
        assert set(from_bin) == set(from_txt)
        for word in from_bin:
            np.testing.assert_allclose(from_bin[word], from_txt[word], atol=1e-6)

    def test_binary_word_not_utf8_names_file_and_entry(self, tmp_path):
        # two Latin-1 words that a lenient decode would both read as "caf\ufffd"
        path = tmp_path / "vecs.bin"
        write_binary_fixture(path, [("café", [1.0]), (b"caf\xe9", [2.0]), (b"caf\xe8", [3.0])], 1)
        with pytest.raises(EmocapsError, match=(
                "^" + re.escape(f"{path}: entry 2 of 3: word b'caf\\xe9' is not UTF-8 (unexpected end of data)") + "$")):
            load_word2vec(path, "binary", {"café"}, 1)

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "vecs.bin"
        write_binary_fixture(path, self.ENTRIES, 3)
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # cut into the last vector
        with pytest.raises(EmocapsError, match="vector truncated after 1 of 2 entries"):
            load_word2vec(path, "binary", {"hi", "yo"}, 3)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("not a header\nhi 0.5\n", encoding="utf-8")
        with pytest.raises(EmocapsError, match="expected 'count dim', got 'not a header'"):
            load_word2vec(path, "text", {"hi"}, 1)

    def test_text_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 3\nhi 0.5 -0.5\n", encoding="utf-8")
        with pytest.raises(EmocapsError, match="entry 'hi' has 2 values, expected 3"):
            load_word2vec(path, "text", {"hi"}, 3)

    def test_unknown_format_is_refused(self, tmp_path, capsys):
        """Where it enters: build-vocab's --embeddings-format takes the two
        formats alone and exits 2, before any file is read or written, so
        load_word2vec is given one of them."""
        path = tmp_path / "vecs.txt"
        path.write_text("1 2\nhi 0.5 -0.5\n", encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            main(["build-vocab", "--inputs", str(tmp_path / "missing.tsv"), "--embedding-out", str(tmp_path / "emb"),
                  "--embeddings", str(path), "--embeddings-format", "csv"])
        assert err.value.code == 2
        assert "argument --embeddings-format: invalid choice: 'csv'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vecs.txt"]

    def test_format_choices_are_the_loaders(self):
        """build-vocab offers the loader's formats, its first as the default:
        a format added to the loader is offered, and none is offered that
        the loader cannot read."""
        sub = next(a for a in build_parser()._actions if a.dest == "command").choices["build-vocab"]
        action = next(a for a in sub._actions if a.dest == "embeddings_format")
        assert list(action.choices) == list(embeddings.WORD2VEC_FORMATS) == ["binary", "text"]
        assert action.default == "binary"

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 1\nhi 1.0\nhi 2.0\n", encoding="utf-8")
        table = load_word2vec(path, "text", {"hi"}, 1)
        np.testing.assert_allclose(table["hi"], [1.0])

    def test_writer_reader_round_trip(self, tmp_path):
        path = tmp_path / "out.bin"
        rng = np.random.default_rng(0)
        table = {w: rng.normal(size=4).astype(np.float32) for w in ("alpha", "beta")}
        write_binary_fixture(path, table.items(), 4, separator=b"")
        back = load_word2vec(path, "binary", {"alpha", "beta"}, 4)
        for word, vec in table.items():
            np.testing.assert_array_equal(back[word], vec)


class TestBuildEmbedding:
    def test_pretrained_rows_copied_exactly(self):
        vocab = Vocabulary.build([["known", "unknown"]])
        raw = {"known": np.asarray([1.5, -2.5], dtype=np.float32)}
        table = build_embedding(vocab, raw, 2, seed=0)
        row = table.weights[vocab.word_to_id["known"]]
        np.testing.assert_array_equal(row, np.asarray([1.5, -2.5], dtype=np.float64))

    def test_pad_row_is_zero(self):
        vocab = Vocabulary.build([["w"]])
        table = build_embedding(vocab, {}, 4, seed=0)
        np.testing.assert_array_equal(table.weights[0], np.zeros(4))

    def test_oov_rows_reproducible(self):
        vocab = Vocabulary.build([["w1", "w2"]])
        a = build_embedding(vocab, {}, 8, seed=42)
        b = build_embedding(vocab, {}, 8, seed=42)
        np.testing.assert_array_equal(a.weights, b.weights)
        c = build_embedding(vocab, {}, 8, seed=43)
        assert not np.array_equal(a.weights, c.weights)

    def test_random_rows_within_uniform_range(self):
        vocab = Vocabulary.build([[f"w{i}" for i in range(50)]])
        table = build_embedding(vocab, {}, 10, seed=1)
        others = table.weights[1:]
        assert np.all(others >= -0.05) and np.all(others <= 0.05)


class TestEmbed:
    def make_table(self, rows=6, dim=3, seed=0):
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(rows, dim))
        W[0] = 0.0
        return EmbeddingTable(weights=W)

    def test_single_id_gathers_row(self):
        table = self.make_table()
        X = embed([4], table)
        np.testing.assert_array_equal(X, table.weights[[4]])

    def test_empty_ids(self):
        table = self.make_table(dim=5)
        X = embed([], table)
        assert X.shape == (0, 5)

    def test_repeated_id_gradient_accumulates(self):
        G = np.asarray([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
        rows, values = embed_backward([3, 3], G, vocab_size=5)
        assert rows.tolist() == [3]
        np.testing.assert_array_equal(values[0], G[0] + G[1])
        full = dense(rows, values, 5)
        np.testing.assert_array_equal(full[3], G[0] + G[1])
        assert np.all(full[[0, 1, 2, 4]] == 0.0)

    def test_gather_backward_finite_difference(self):
        table = self.make_table(rows=5, dim=4, seed=3)
        ids = [2, 4, 2]
        rng = np.random.default_rng(7)
        R = rng.normal(size=(3, 4))  # fixed weights make the loss scalar

        rows, values = embed_backward(ids, R, vocab_size=5)
        assert rows.tolist() == [2, 4]
        gW = dense(rows, values, 5)
        eps = 1e-6
        for row in range(5):
            for col in range(4):
                saved = table.weights[row, col]
                table.weights[row, col] = saved + eps
                up = float(np.sum(embed(ids, table) * R))
                table.weights[row, col] = saved - eps
                down = float(np.sum(embed(ids, table) * R))
                table.weights[row, col] = saved
                numeric = (up - down) / (2 * eps)
                assert abs(numeric - gW[row, col]) < 1e-6


def dense_embed_backward(ids, grad_output, vocab_size):
    """The dense scatter-add that `embed_backward` replaced: the oracle."""
    grad = np.zeros((vocab_size, grad_output.shape[1]), dtype=grad_output.dtype)
    np.add.at(grad, np.asarray(ids, dtype=np.intp), grad_output)
    return grad


class TestRowGrad:
    """`embed_backward`'s (rows, values) row gradient."""

    @pytest.mark.parametrize("n", [1, 12, 50])
    def test_bitwise_equal_to_dense_scatter(self, n):
        rng = np.random.default_rng(n)
        ids = rng.integers(0, 40, size=n)  # repeats at n = 50
        G = rng.normal(size=(n, 6))
        rows, values = embed_backward(ids.tolist(), G, vocab_size=40)
        assert rows.tolist() == sorted(set(ids.tolist()))
        assert values.shape == (rows.size, 6)
        np.testing.assert_array_equal(dense(rows, values, 40), dense_embed_backward(ids, G, 40))

    def test_empty_sequence(self):
        rows, values = embed_backward([], np.zeros((0, 3)), vocab_size=4)
        assert rows.size == 0 and values.shape == (0, 3)
        assert np.all(dense(rows, values, 4) == 0.0)
