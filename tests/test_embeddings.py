import re
import struct

import numpy as np
import pytest

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
from emocaps.errors import (
    DimensionMismatch,
    IdOutOfRange,
    MalformedHeader,
    MalformedLine,
    TruncatedFile,
)


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
        vocab = Vocabulary.build([["b", "a", "b"]])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_word == vocab.id_to_word
        assert loaded.word_to_id == vocab.word_to_id

    def test_load_rejects_gaps(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\t<pad>\n2\tskip\n", encoding="utf-8")
        with pytest.raises(MalformedHeader, match=f"{path}:2: non-contiguous"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("bad", ["1 <unk>", "one\t<unk>", "\t<unk>"])
    def test_load_names_file_and_line_of_malformed_line(self, tmp_path, bad):
        path = tmp_path / "vocab.tsv"
        path.write_text(f"0\t<pad>\n\n{bad}\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=f"{path}:3: expected id<TAB>word") as err:
            Vocabulary.load(path)
        assert err.value.line_number == 3

    def test_load_rejects_repeated_word(self, tmp_path):
        # keeping one id of the word would leave the other's row unreachable
        path = tmp_path / "vocab.tsv"
        path.write_text("0\t<pad>\n1\t<unk>\n\n2\tcat\n3\tcat\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=f"{path}:5: word 'cat' repeats id 2$") as err:
            Vocabulary.load(path)
        assert err.value.line_number == 5

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"])
    def test_load_lines_end_only_at_newline(self, tmp_path, sep):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(f"0\t<pad>\r\n1\t<unk>\r2\tone{sep}two\n".encode("utf-8"))
        assert Vocabulary.load(path).id_to_word == ["<pad>", "<unk>", f"one{sep}two"]

    def test_load_skips_blank_lines_and_keeps_tabs_in_words(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\t<pad>\n1\t<unk>\n\n2\ta\tb\n", encoding="utf-8")
        assert Vocabulary.load(path).id_to_word == ["<pad>", "<unk>", "a\tb"]

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
        with pytest.raises(MalformedHeader, match=f"^{path}:{where}: {message}$"):
            Vocabulary.load(path)


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
        table = load_word2vec(path, fmt="binary")
        assert set(table) == {"hi", "yo"}
        for word, vec in self.ENTRIES:
            np.testing.assert_array_equal(table[word], np.asarray(vec, dtype=np.float32))

    def test_binary_without_newline_separators(self, tmp_path):
        path = tmp_path / "vecs.bin"
        write_binary_fixture(path, self.ENTRIES, 3, separator=b"")
        table = load_word2vec(path, fmt="binary")
        assert set(table) == {"hi", "yo"}

    def test_text_fixture(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 2\nhi 0.5 -0.5\n", encoding="utf-8")
        table = load_word2vec(path, fmt="text")
        np.testing.assert_allclose(table["hi"], [0.5, -0.5])

    def test_text_from_the_word2vec_tool(self, tmp_path):
        # the C tool writes each value followed by a space, so lines end "vd \n"
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\nhello 0.1 0.2 0.3 \nworld 1 2 3 \n", encoding="utf-8")
        table = load_word2vec(path, fmt="text")
        np.testing.assert_array_equal(table["hello"], np.asarray([0.1, 0.2, 0.3], dtype=np.float32))
        np.testing.assert_array_equal(table["world"], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"])
    def test_text_lines_end_only_at_newline(self, tmp_path, sep):
        path = tmp_path / "vecs.txt"
        path.write_bytes(f"3 1\r\none{sep}two 0.5\rcat 1\r\ndog 2\n".encode("utf-8"))
        table = load_word2vec(path, fmt="text")
        assert {word: vec.tolist() for word, vec in table.items()} == {f"one{sep}two": [0.5], "cat": [1.0], "dog": [2.0]}

    @pytest.mark.parametrize(
        "fmt, content, error, where",
        [
            ("text", b"", MalformedHeader, ": empty file"),
            ("text", b"not a header\nhi 0.5\n", MalformedHeader, ":1: expected 'count dim'"),
            ("text", b"2 x\n", MalformedHeader, ":1: non-integer header fields"),
            ("text", b"3 1\nhi 1.0\nhi 2.0\n", TruncatedFile, ":4: file ended after 2 of 3 entries"),
            ("text", b"2 2\nhi 0.5 0.5\nyo 0.5\n", DimensionMismatch, ":3: entry 'yo' has 1 values, expected 2"),
            ("text", b"1 2\nhello 0.1 abc\n", MalformedLine, ":2: entry 'hello' has a non-numeric value 'abc'"),
            ("binary", b"", MalformedHeader, ": empty file"),
            ("binary", b"0 -1\n", MalformedHeader, ":1: invalid header values"),
            ("binary", b"1 2\nhi", TruncatedFile, ": file ended after 0 of 1 entries"),
            ("binary", b"1 2\nhi \x00", TruncatedFile, ": vector truncated after 0 of 1 entries"),
        ],
        ids=["text-empty", "text-header", "text-header-fields", "text-truncated", "text-short-entry", "text-non-numeric",
             "binary-empty", "binary-header-values", "binary-word-cut", "binary-vector-cut"],
    )
    def test_errors_name_file_and_line(self, tmp_path, fmt, content, error, where):
        path = tmp_path / "vecs"
        path.write_bytes(content)
        with pytest.raises(error) as err:
            load_word2vec(path, fmt=fmt)
        assert str(err.value).startswith(f"{path}{where}")

    def test_binary_and_text_agree(self, tmp_path):
        binary = tmp_path / "vecs.bin"
        text = tmp_path / "vecs.txt"
        write_binary_fixture(binary, self.ENTRIES, 3)
        lines = ["2 3"] + [f"{w} " + " ".join(str(v) for v in vec) for w, vec in self.ENTRIES]
        text.write_text("\n".join(lines) + "\n", encoding="utf-8")
        from_bin = load_word2vec(binary, fmt="binary")
        from_txt = load_word2vec(text, fmt="text")
        assert set(from_bin) == set(from_txt)
        for word in from_bin:
            np.testing.assert_allclose(from_bin[word], from_txt[word], atol=1e-6)

    def test_binary_word_not_utf8_names_file_and_entry(self, tmp_path):
        # two Latin-1 words that a lenient decode would both read as "caf\ufffd"
        path = tmp_path / "vecs.bin"
        write_binary_fixture(path, [("café", [1.0]), (b"caf\xe9", [2.0]), (b"caf\xe8", [3.0])], 1)
        with pytest.raises(MalformedLine, match=(
                "^" + re.escape(f"{path}: entry 2 of 3: word b'caf\\xe9' is not UTF-8 (unexpected end of data)") + "$")):
            load_word2vec(path, fmt="binary")

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "vecs.bin"
        write_binary_fixture(path, self.ENTRIES, 3)
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # cut into the last vector
        with pytest.raises(TruncatedFile):
            load_word2vec(path, fmt="binary")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("not a header\nhi 0.5\n", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            load_word2vec(path, fmt="text")

    def test_text_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 3\nhi 0.5 -0.5\n", encoding="utf-8")
        with pytest.raises(DimensionMismatch):
            load_word2vec(path, fmt="text")

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 1\nhi 1.0\nhi 2.0\n", encoding="utf-8")
        table = load_word2vec(path, fmt="text")
        np.testing.assert_allclose(table["hi"], [1.0])

    def test_writer_reader_round_trip(self, tmp_path):
        path = tmp_path / "out.bin"
        rng = np.random.default_rng(0)
        table = {w: rng.normal(size=4).astype(np.float32) for w in ("alpha", "beta")}
        write_binary_fixture(path, table.items(), 4, separator=b"")
        back = load_word2vec(path, fmt="binary")
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

    def test_raw_dimension_mismatch(self):
        vocab = Vocabulary.build([["w"]])
        raw = {"w": np.zeros(5, dtype=np.float32)}
        with pytest.raises(DimensionMismatch):
            build_embedding(vocab, raw, 3, seed=0)


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

    def test_id_out_of_range(self):
        table = self.make_table(rows=4)
        with pytest.raises(IdOutOfRange):
            embed([4], table)
        with pytest.raises(IdOutOfRange):
            embed([-1], table)

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

    @pytest.mark.parametrize("ids", [[4], [-1], [0, 7]])
    def test_ids_checked_against_vocab_size(self, ids):
        with pytest.raises(IdOutOfRange):
            embed_backward(ids, np.ones((len(ids), 2)), vocab_size=4)

    def test_out_of_range_message_lists_only_the_bad_ids(self):
        """A 512-id chunk with bad ids names those, once each and sorted,
        not the whole chunk."""
        ids = [1, 2, 3] * 170 + [9, -1]
        table = EmbeddingTable(weights=np.zeros((4, 2)))
        with pytest.raises(IdOutOfRange, match=r"^ids must lie in \[0, 4\), got \[-1, 9\]$"):
            embed(ids + [9], table)
        with pytest.raises(IdOutOfRange, match=r"^ids must lie in \[0, 4\), got \[-1, 9\]$"):
            embed_backward(ids, np.ones((len(ids), 2)), vocab_size=4)
