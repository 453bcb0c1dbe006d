import dataclasses
import hashlib
import itertools
import json
import math
import random
import re
import tracemalloc
import unicodedata
from bisect import bisect_left
from collections import Counter
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest

import emocaps.textprep as textprep
from emocaps import errors
from emocaps.errors import EmocapsError
from emocaps.textprep import (
    TAG_SURFACES,
    TARGETWORD_PLACEHOLDER,
    Lexicon,
    TokenKind,
    _letter_mask,
    _LetterIndex,
    _meet_after_two_deletes,
    _one_edit,
    _positions,
    _two_edits,
    normalize,
    preprocess,
    segment_hashtag,
    spell_correct,
    tokenize,
)
import lexicon_oracle
from spell_oracle import ALPHABET, edits1, sources1, two_steps
from test_embeddings import SPACED_WORDS, encode_rows, odd_cell

# words that preprocess's NFC composition changes, so no surface equals them:
# decomposed, a Hangul syllable in jamo, marks out of order, a composition exclusion
NFD_WORDS = ("cafe\u0301", "\u1100\u1161", "o\u0301\u0323", "\u0958")

CORPUS = [
    "It's [#TARGETWORD#] when you feel invisible",
    "that s**t happened *very* fast :-)",
    "@user1 check www.example.com or http://a.io/x?q=1",
    "meeting 3:30pm on 12/25/2018 costs $20",
    "call 555-123-4567 or mail bob.smith+x@mail.example.org",
    "OMG!!! the U.S.A. won 2-0 ... unbelievable",
    "so happyyy #makeitrain #Blessed2018 1,000 times",
]


def kinds(tokens):
    return [t.kind for t in tokens]


def surfaces(tokens):
    return [t.surface for t in tokens]


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("") == []

    def test_placeholder_never_split(self):
        toks = tokenize("It's [#TARGETWORD#] when")
        assert surfaces(toks) == ["It's", TARGETWORD_PLACEHOLDER, "when"]
        assert kinds(toks) == [TokenKind.WORD, TokenKind.TARGETWORD, TokenKind.WORD]

    def test_censored_word_is_one_token(self):
        toks = tokenize("that s**t happened")
        assert surfaces(toks) == ["that", "s**t", "happened"]
        assert toks[1].kind is TokenKind.CENSORED

    def test_emphasis(self):
        toks = tokenize("*very* nice")
        assert surfaces(toks) == ["*very*", "nice"]
        assert kinds(toks) == [TokenKind.EMPHASIS, TokenKind.WORD]

    def test_social_entities(self):
        toks = tokenize("@user1 http://a.io/x www.b.org a@b.co #tag")
        assert kinds(toks) == [
            TokenKind.USER,
            TokenKind.URL,
            TokenKind.URL,
            TokenKind.EMAIL,
            TokenKind.HASHTAG,
        ]

    def test_numeric_entities(self):
        toks = tokenize("12/25/2018 3:30pm $20 555-123-4567 3rd 1,000")
        assert kinds(toks) == [
            TokenKind.DATE,
            TokenKind.TIME,
            TokenKind.MONEY,
            TokenKind.PHONE,
            TokenKind.NUMBER,
            TokenKind.NUMBER,
        ]

    def test_emoticon_and_punct(self):
        toks = tokenize("fine :-) ok !!! .")
        assert kinds(toks) == [
            TokenKind.WORD,
            TokenKind.EMOTICON,
            TokenKind.WORD,
            TokenKind.PUNCT,
            TokenKind.PUNCT,
        ]

    def test_acronym(self):
        toks = tokenize("the U.S.A. won")
        assert toks[1].kind is TokenKind.ACRONYM
        assert toks[1].surface == "U.S.A."

    def test_no_characters_lost(self):
        # every non-whitespace character of the input survives in some token
        for raw in CORPUS:
            toks = tokenize(raw)
            joined = "".join("".join(t.surface.split()) for t in toks)
            assert joined == "".join(raw.split()), raw

    def test_retokenization_is_stable(self):
        for raw in CORPUS:
            toks = tokenize(raw)
            again = tokenize(" ".join(surfaces(toks)))
            assert kinds(again) == kinds(toks), raw

    @pytest.mark.parametrize("raw, expected", [
        ("3:30 amazing day", ["3:30", "amazing", "day"]),
        ("12:00 pmx", ["12:00", "pmx"]),
        ("3:30 amé", ["3:30", "amé"]),
        ("7 amé", ["7", "amé"]),
        ("7 AMAZING", ["7", "AMAZING"]),
        ("7 am\u0301", ["7", "am\u0301"]),
    ])
    def test_meridiem_takes_no_letters_of_the_next_word(self, raw, expected):
        assert surfaces(tokenize(raw)) == expected

    @pytest.mark.parametrize("raw", ["10 PM", "3:30PM", "10 pm", "7 Am", "11:05:59 pM"])
    def test_meridiem_of_either_case_is_a_time(self, raw):
        assert [(t.surface, t.kind) for t in tokenize(raw)] == [(raw, TokenKind.TIME)]

    @pytest.mark.parametrize("raw, kind", [
        ("x\u0301yz", TokenKind.WORD),
        ("#x\u0301yz", TokenKind.HASHTAG),
        ("@x\u0301yz", TokenKind.USER),
        ("s*x\u0301t", TokenKind.CENSORED),
        ("ab\u0301c-d\u0301e", TokenKind.WORD),
        ("*x\u0301\u0308y*", TokenKind.EMPHASIS),
        ("नमस्ते", TokenKind.WORD),  # spacing (Mc) and non-spacing (Mn) vowel signs and virama
        ("x\u0301y@z.org", TokenKind.EMAIL),
        ("xy@x\u0301z.q\u0301rg", TokenKind.EMAIL),
    ])
    def test_marks_stay_inside_their_token(self, raw, kind):
        """A combining mark that NFC leaves alone, having no precomposed
        form with its letter, continues the letter or \\w run it follows."""
        assert unicodedata.normalize("NFC", raw) == raw
        assert [(t.surface, t.kind) for t in tokenize(raw + " ok")] == [(raw, kind), ("ok", TokenKind.WORD)]

    def test_a_mark_starts_no_run(self):
        assert [(t.surface, t.kind) for t in tokenize("\u0301x 5\u0301")] == [
            ("\u0301", TokenKind.PUNCT), ("x", TokenKind.WORD), ("5", TokenKind.NUMBER), ("\u0301", TokenKind.PUNCT)]

    def test_numeric_characters_are_not_letters(self):
        """Numeric characters that are not decimal digits (categories No,
        Nl) stand alone; a hashtag's \\w run still takes them."""
        assert [(t.surface, t.kind) for t in tokenize("10½ x² Ⅻ #x²")] == [
            ("10", TokenKind.NUMBER), ("½", TokenKind.PUNCT), ("x", TokenKind.WORD), ("²", TokenKind.PUNCT),
            ("Ⅻ", TokenKind.PUNCT), ("#x²", TokenKind.HASHTAG)]


class TestNormalize:
    def test_user_tag(self):
        toks = normalize(tokenize("@user1"))
        assert surfaces(toks) == [TAG_SURFACES["USER"]]

    def test_lowercases_words(self):
        toks = normalize(tokenize("HELLO World"))
        assert surfaces(toks) == ["hello", "world"]

    def test_url_tag(self):
        toks = normalize(tokenize("http://a.io/x"))
        assert surfaces(toks) == ["<url>"]

    def test_targetword_tag(self):
        toks = normalize(tokenize(TARGETWORD_PLACEHOLDER))
        assert surfaces(toks) == ["<targetword>"]

    def test_all_tag_kinds(self):
        raw = "http://a.io @u a@b.co 555-123-4567 12/25/2018 3:30pm $5"
        tagged = [t.surface for t in normalize(tokenize(raw))]
        assert tagged == ["<url>", "<user>", "<email>", "<phone>", "<date>", "<time>", "<money>"]

    def test_no_uppercase_outside_tags(self):
        for raw in CORPUS:
            for tok in normalize(tokenize(raw)):
                if tok.surface not in TAG_SURFACES.values():
                    assert tok.surface == tok.surface.lower(), tok


class TestLexicon:
    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("cat\t2\ncat\t3\ndog\t1\n", encoding="utf-8")
        lex = Lexicon.from_file(path)
        assert lex.counts == {"cat": 5, "dog": 1}
        assert lex.total == 6

    def test_rejects_bad_words(self):
        for word in ("", "Cat", "s**t"):
            with pytest.raises(ValueError):
                Lexicon({word: 1})

    # one case per rule; a lexicon built directly is checked as one read
    # from a file is, so an empty word cannot make spelling correction
    # delete a token
    @pytest.mark.parametrize("word, count, says", [
        ("", 100, "bad lexicon word: ''"),
        ("Cat", 5, "bad lexicon word: 'Cat'"),
        ("bi*d", 1, "bad lexicon word: 'bi*d'"),
        ("cat", -2, "negative count for 'cat'"),
        ("cat", 2.5, "count for 'cat' is not an int: 2.5"),
        ("cat", True, "count for 'cat' is not an int: True"),
        ("new york", 1, "word 'new york' holds whitespace, which no token holds"),
        ("cafe\u0301", 1, "word 'cafe\u0301' is not NFC, which every surface is"),
    ], ids=["empty", "uppercase", "censored", "negative", "float", "bool", "spaced", "nfd"])
    def test_every_way_in_checks_the_rule(self, tmp_path, word, count, says):
        path = tmp_path / "lex.tsv"
        path.write_text(f"dog\t1\n{word}\t{count}\nowl\t2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(says)}$"):
            Lexicon({"dog": 1, word: count, "owl": 2})
        if type(count) is not int:  # a file's count is digits: 2.5 or True there is a line of the wrong form
            says = "expected 'word<TAB>count', got " + repr(f"{word}\t{count}")
        with pytest.raises(EmocapsError, match=f"^{re.escape(f'{path}:2: {says}')}$"):
            Lexicon.from_file(path)

    def test_a_sum_hides_no_negative_count(self, tmp_path):
        # -1 + 2 is 1: each line is checked before it is summed
        path = tmp_path / "lex.tsv"
        path.write_text("dog\t1\ncat\t-1\ncat\t2\n", encoding="utf-8")
        with pytest.raises(EmocapsError, match=f"^{re.escape(f'{path}:2: negative count for ')}'cat'$"):
            Lexicon.from_file(path)

    def test_from_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("cat\t3\ndog\t1\n\ncat\t2\n", encoding="utf-8")
        lex = Lexicon.from_file(path)
        assert lex.counts == {"cat": 5, "dog": 1}

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"])
    def test_from_file_lines_end_only_at_newline(self, tmp_path, sep):
        """The line holding `sep` is line 3, and its word is refused whole
        for the whitespace in it."""
        path = tmp_path / "lex.tsv"
        path.write_bytes(f"cat\t2\r\ndog\t1\rone{sep}two\t3\n".encode("utf-8"))
        says = f"{path}:3: word {f'one{sep}two'!r} holds whitespace, which no token holds"
        with pytest.raises(EmocapsError, match="^" + re.escape(says) + "$"):
            Lexicon.from_file(path)

    @pytest.mark.parametrize("word", ["new york", "a\tb", "a\nb", "a\rb", "a\xa0b", *NFD_WORDS])
    def test_refuses_a_word_no_surface_can_equal(self, word):
        """A surface holds no whitespace and is NFC, so a word that is not
        would only add its count to the total; a tab or a line end in a word
        reaches the lexicon only this way, never from a file."""
        says = "holds whitespace, which no token holds" if any(map(str.isspace, word)) else "is not NFC, which every surface is"
        with pytest.raises(ValueError, match=f"^{re.escape(f'word {word!r} {says}')}$"):
            Lexicon({"cat": 1, word: 1})

    @pytest.mark.parametrize("word", SPACED_WORDS + NFD_WORDS)
    def test_from_file_refuses_a_word_no_surface_can_reach(self, tmp_path, word):
        """A word that holds whitespace or is not NFC is refused, naming its
        line, in an ASCII file or not and wherever in a large file it is."""
        rows = [f"w{i}\t{i}" for i in range(5000)]
        for at in (2, 4999):
            spoiled = list(rows)
            spoiled[at] = f"x{word}{at}\t1"
            path = tmp_path / "lex.tsv"
            path.write_text("\n".join(spoiled) + "\n", encoding="utf-8")
            rule = "is not NFC, which every surface is" if word in NFD_WORDS else "holds whitespace, which no token holds"
            says = f"{path}:{at + 1}: word {f'x{word}{at}'!r} {rule}"
            with pytest.raises(EmocapsError, match="^" + re.escape(says) + "$"):
                Lexicon.from_file(path)

    def test_a_word_no_surface_equals_moves_no_split(self):
        """The count of a word no hashtag part can be would still enter the
        total, and so every split's score: a lexicon that held `new york`
        100,000 times split #hashtag whole."""
        counts = {"hash": 100, "tag": 100, "hashtag": 30}
        assert segment_hashtag("#hashtag", Lexicon(counts)) == ["hash", "tag"]
        assert segment_hashtag("#hashtag", Lexicon({**counts, "newyork": 100_000})) == ["hashtag"]
        for word in ("new york", "cafe\u0301"):
            with pytest.raises(ValueError):
                Lexicon({**counts, word: 100_000})

    def test_from_file_malformed(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("cat\t3\nbroken line\n", encoding="utf-8")
        with pytest.raises(EmocapsError, match=f"^{re.escape(f'{path}:2: ')}expected 'word<TAB>count'"):
            Lexicon.from_file(path)

    @pytest.mark.parametrize("line, says", [
        ("Cat\t1", "bad lexicon word: 'Cat'"),
        ("s**t\t1", "bad lexicon word: 's**t'"),
        ("\t1", "bad lexicon word: ''"),
        ("cat\t-2", "negative count for 'cat'"),
        ("cat\t2\t3", "expected 'word<TAB>count'"),
        ("cat\tmany", "expected 'word<TAB>count'"),
        ("dog\t-1", "negative count for 'dog'"),  # though the summed count is 0
        ("Cat\t1\nbroken line", "bad lexicon word: 'Cat'"),  # the first bad line is named
        ("Cat\t1\ncat\t-2", "bad lexicon word: 'Cat'"),
        ("New York\t1", "bad lexicon word: 'New York'"),  # the case rule before the whitespace rule
    ])
    def test_from_file_names_file_and_line(self, tmp_path, line, says):
        path = tmp_path / "lex.tsv"
        path.write_text(f"dog\t1\n\n{line}\n", encoding="utf-8")
        with pytest.raises(EmocapsError, match="^" + re.escape(f"{path}:3: {says}")):
            Lexicon.from_file(path)

    def test_word_logp(self):
        lex = Lexicon({"cat": 3, "dog": 1})
        assert word_logp(lex, "cat") == pytest.approx(math.log(3 / 4))
        assert word_logp(lex, "zzz") == pytest.approx(math.log(1 / 4) - 3.0 * 3)

    def test_immutable(self):
        lex = Lexicon({"cat": 3})
        with pytest.raises(TypeError):
            lex.counts["x"] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            lex.total = 7
        assert lex.counts == {"cat": 3} and lex.total == 3

    def test_direct_construction_copies_counts(self):
        counts = {"cat": 3}
        lex = Lexicon(counts=counts)
        counts["dog"] = 1
        assert lex.counts == {"cat": 3} and lex.total == 3
        shared = MappingProxyType(counts)  # a read-only view is copied too
        lex = Lexicon(counts=shared)
        counts["cow"] = 1
        assert lex.counts == {"cat": 3, "dog": 1} and lex.total == 4
        assert word_logp(lex, "cat") == pytest.approx(math.log(3 / 4))
        with pytest.raises(TypeError):  # the total follows from the counts
            Lexicon(counts={"cat": 3}, total=4)

    def test_spelling_state_not_compared_or_shown(self):
        lex, other = Lexicon({"cats": 3}), Lexicon({"cats": 3})
        assert spell_correct("qqqqq", lex) == "qqqqq"  # fills the memo, builds the index
        assert lex == other
        assert repr(lex) == repr(other) == "Lexicon(counts=mappingproxy({'cats': 3}), total=3)"

    def test_letter_index_built_by_first_out_of_lexicon_search(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("cat\t3\ndog\t1\n", encoding="utf-8")
        lex = Lexicon.from_file(path)
        assert "_letters" not in vars(lex)
        assert preprocess("the cat", lex) == ["the", "cat"]  # no surface is spell-corrected
        assert spell_correct("dog", lex) == "dog"  # in the lexicon: no search
        assert "_letters" not in vars(lex)
        assert spell_correct("cta", lex) == "cat"  # one edit away: the index finds it
        assert "_letters" in vars(lex)


# words that the line rule, the tab split, the case test, the whitespace rule or NFC could misread
LEXICON_ODD_WORDS = ("café", "7", "\ufeffbom", "ǆ", "\u200b", "soft\xadhyphen", "가")
COUNT_FORMATS = ("{}", "{}", "{}", "0{}")
BAD_LEXICON_ROWS = ("cat", "cat\t1\t2", "cat\tmany", "\t1", "Cat\t1", "s*t\t1", "cat\t-1", "cat\t2.5", " ", "ǅ\t1",
                    "cat\t-", "cat\t--1", "cat\t1-")


def lexicon_rows(rng, count):
    """`count` rows of a well-formed lexicon, some with odd words or
    counts, and one word in five a repeat of an earlier one."""
    words = []
    for i in range(count):
        fresh = rng.choice(LEXICON_ODD_WORDS) + str(i) if rng.random() < 0.2 else f"w{i}"
        words.append(rng.choice(words) if words and rng.random() < 0.2 else fresh)
    return [f"{word}\t{rng.choice(COUNT_FORMATS).format(rng.randint(1, 99))}" for word in words]


def spoil_lexicon(rng, rows):
    """`rows` with one fault at a random row, or none, and blank lines
    around that row."""
    at = rng.randrange(len(rows) + 1)
    fault = rng.choice(["none", "bad-row", "hidden-negative", "tab-word", "odd-count", "spaced-word", "nfd-word"])
    if fault == "bad-row" or fault != "none" and at == len(rows):
        rows.insert(at, rng.choice(BAD_LEXICON_ROWS))
    elif fault == "hidden-negative":  # the row's own count is larger: the sum is not negative
        rows.insert(at, rows[at].split("\t")[0] + "\t-1")
    elif fault == "tab-word":
        rows[at] = "more\t" + rows[at]
    elif fault == "odd-count":
        word, count = rows[at].split("\t")
        rows[at] = f"{word}\t{odd_cell(rng, int(count))}"
    elif fault in ("spaced-word", "nfd-word"):
        rows[at] = rng.choice(SPACED_WORDS if fault == "spaced-word" else NFD_WORDS) + rows[at]
    for _ in range(rng.choice([0, 0, 1, 3])):
        rows.insert(min(max(at + rng.randint(-1, 1), 0), len(rows)), "")
    return rows


LEXICON_REFUSALS = ("expected 'word<TAB>count'", "bad lexicon word", "negative count for", "not UTF-8 text",
                    "holds whitespace", "is not NFC")


def assert_reads_as_oracle(path):
    """Lexicon.from_file gives the line loop's counts, or its error with
    the same type and message, which names the line; the outcome: "loaded"
    or the one of LEXICON_REFUSALS that the message holds."""
    try:
        expected = lexicon_oracle.from_file(path)
    except EmocapsError as exc:
        with pytest.raises(EmocapsError) as err:
            Lexicon.from_file(path)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return next(kind for kind in LEXICON_REFUSALS if kind in str(exc))
    assert Lexicon.from_file(path).counts == expected
    return "loaded"


class TestLexiconBlocks:
    """Lexicon.from_file parses blocks of whole lines; the line loop of
    lexicon_oracle is what it must agree with, on every file."""

    @pytest.mark.parametrize("block", [1, 5, 23, errors.BLOCK_CHARS])
    def test_small_files_agree_with_the_line_loop(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(errors, "BLOCK_CHARS", block)
        rng = random.Random(block)
        outcomes = Counter()
        for n in range(200):
            rows = spoil_lexicon(rng, lexicon_rows(rng, rng.randint(0, 12)))
            path = tmp_path / f"lex{n}.tsv"
            path.write_bytes(encode_rows(rng, rows))
            outcomes[assert_reads_as_oracle(path)] += 1
        assert set(outcomes) == {"loaded", *LEXICON_REFUSALS}, outcomes

    @pytest.mark.parametrize("fault, outcome", [
        (None, "loaded"), ("bad-row", "expected 'word<TAB>count'"), ("blank", "loaded"),
        ("uppercase", "bad lexicon word"), ("censored", "bad lexicon word"), ("hidden-negative", "negative count for"),
        ("crlf", "loaded"), ("cr", "loaded"), ("bom", "loaded"), ("not-utf8", "not UTF-8 text"),
        ("odd-count", "expected 'word<TAB>count'"), ("spaced-word", "holds whitespace"), ("nfd-word", "is not NFC"),
    ])
    def test_large_file_agrees_at_the_block_boundary(self, tmp_path, fault, outcome):
        """A 30,000-line file with a fault on each side of the line that
        starts its second block, or on that line."""
        rows = lexicon_rows(random.Random(30_000), 30_000)
        text = "\n".join(rows) + "\n"
        second = text.count("\n", 0, text.find("\n", errors.BLOCK_CHARS) + 1)
        for at in (second - 1, second, second + 1) if fault else (0,):
            spoiled = list(rows)
            if fault == "bad-row":
                spoiled.insert(at, "oops")
            elif fault == "blank":
                spoiled[at:at] = ["", ""]
            elif fault in ("uppercase", "censored"):
                spoiled[at] = ("W" if fault == "uppercase" else "w*") + spoiled[at]
            elif fault == "hidden-negative":
                spoiled.insert(at, spoiled[at].split("\t")[0] + "\t-1")
            elif fault == "crlf":
                spoiled[at] += "\r"
            elif fault == "cr":
                spoiled[at : at + 2] = [spoiled[at] + "\r" + spoiled[at + 1]]
            elif fault == "bom":
                spoiled[at] = "\ufeff" + spoiled[at]
            elif fault == "not-utf8":
                spoiled[at] += "\udce9"  # the byte 0xe9 alone, written by surrogateescape
            elif fault == "odd-count":
                word, count = spoiled[at].split("\t")
                spoiled[at] = f"{word}\t{odd_cell(random.Random(at), int(count))}"
            elif fault in ("spaced-word", "nfd-word"):
                words = SPACED_WORDS if fault == "spaced-word" else NFD_WORDS
                spoiled[at] = words[at % len(words)] + spoiled[at]
            path = tmp_path / f"lex{at}.tsv"
            path.write_bytes(("\n".join(spoiled) + "\n").encode("utf-8", "surrogateescape"))
            assert assert_reads_as_oracle(path) == outcome


def word_logp(lex, word):
    """The unigram log-probability that `segment_hashtag` inlines, the
    oracle of its per-word score: out-of-lexicon words pay a length penalty."""
    count = lex.counts.get(word, 0)
    if count > 0:
        return math.log(count / lex.total)
    return math.log(1.0 / max(lex.total, 1)) - textprep._OOV_LEN_PENALTY * len(word)


def oracle_segment(body, lex):
    """Exhaustive best split: try all 2^(n-1) segmentations."""
    n = len(body)
    best_key, best_words = None, None
    for cuts in range(1 << max(n - 1, 0)):
        words, start = [], 0
        for i in range(n - 1):
            if cuts >> i & 1:
                words.append(body[start : i + 1])
                start = i + 1
        words.append(body[start:])
        score = sum(word_logp(lex, w) for w in words)
        key = (-score, len(words), tuple(words))
        if best_key is None or key < best_key:
            best_key, best_words = key, list(words)
    return best_words


def tuple_segment(tag, lex):
    """The dynamic program that `segment_hashtag` replaced, the exact
    oracle: per suffix it keeps the key (negated score, word count, word
    tuple) of its best split, building one tuple per candidate."""
    body = tag.lstrip("#").lower()
    if not body:
        return [tag]
    n = len(body)
    best = [None] * (n + 1)
    best[n] = (0.0, 0, ())
    for i in range(n - 1, -1, -1):
        winner = None
        for j in range(i + 1, n + 1):
            word = body[i:j]
            tail = best[j]
            candidate = (
                tail[0] - word_logp(lex, word),
                tail[1] + 1,
                (word,) + tail[2],
            )
            if winner is None or candidate < winner:
                winner = candidate
        best[i] = winner
    return list(best[0][2])


SEG_LEXICON = Lexicon(
    {
        "make": 50, "it": 400, "rain": 30, "the": 900, "a": 700,
        "cat": 60, "cats": 25, "dog": 55, "sun": 40, "sunny": 22,
        "day": 80, "days": 30, "to": 500, "today": 45, "night": 35,
        "good": 90, "bad": 50, "mood": 20, "is": 450, "was": 300,
        "in": 420, "on": 380, "at": 260, "so": 240, "no": 200,
        "not": 220, "now": 110, "know": 70, "new": 85, "news": 28,
        "love": 95, "life": 75, "live": 40, "like": 160, "time": 120,
        "go": 150, "going": 60, "home": 55, "work": 85, "out": 140,
        "up": 170, "down": 70, "rains": 8, "an": 190, "and": 600,
        "i": 800, "you": 650, "me": 350, "we": 280, "best": 65,
    }
)


class TestSegmentHashtag:
    def test_three_word_compound(self):
        assert segment_hashtag("#makeitrain", SEG_LEXICON) == ["make", "it", "rain"]

    def test_single_known_word(self):
        assert segment_hashtag("#cat", SEG_LEXICON) == ["cat"]

    def test_empty_lexicon_keeps_body(self):
        assert segment_hashtag("#qzxqzx", Lexicon()) == ["qzxqzx"]

    def test_uppercase_body(self):
        assert segment_hashtag("#MakeItRain", SEG_LEXICON) == ["make", "it", "rain"]

    def test_exact_tie_prefers_fewer_words(self):
        # counts chosen so P(ab) == P(a)P(b): 1/16 == (4/16)(4/16)
        lex = Lexicon({"a": 4, "b": 4, "ab": 1, "z": 7})
        assert segment_hashtag("#ab", lex) == ["ab"]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        words = list(SEG_LEXICON.counts)
        bodies = set()
        for _ in range(120):
            body = "".join(words[i] for i in rng.integers(len(words), size=rng.integers(1, 4)))
            bodies.add(body[:12])
        for _ in range(60):
            length = int(rng.integers(1, 13))
            bodies.add("".join(chr(97 + c) for c in rng.integers(26, size=length)))
        for body in sorted(bodies):
            assert segment_hashtag("#" + body, SEG_LEXICON) == oracle_segment(body, SEG_LEXICON), body

    @pytest.mark.parametrize("lex", [
        # every word of 1-3 letters over "abc", all counted alike: many splits tie exactly
        Lexicon({"".join(w): 3 for k in (1, 2, 3) for w in itertools.product("abc", repeat=k)}),
        Lexicon(),
        SEG_LEXICON,
    ], ids=["equal-counts", "empty", "seg"])
    def test_matches_tuple_oracle(self, lex):
        rng = np.random.default_rng(22)
        alphabets = ("ab", "abc", "bcd", "ait", "ton", "sun", "ins")
        for _ in range(20_000):
            letters = alphabets[int(rng.integers(len(alphabets)))]
            body = "".join(letters[k] for k in rng.integers(len(letters), size=int(rng.integers(1, 11))))
            form = int(rng.integers(3))
            if form == 1:  # camel case
                body = "".join(ch.upper() if up else ch for ch, up in zip(body, rng.random(len(body)) < 0.3))
            tag = ("##" if form == 2 else "#") + body
            assert segment_hashtag(tag, lex) == tuple_segment(tag, lex), tag
        for tag in ("#", "##"):
            assert segment_hashtag(tag, lex) == tuple_segment(tag, lex) == [tag]

    def test_inlined_word_logp_is_bitwise_word_logp(self, monkeypatch):
        """segment_hashtag inlines the oracle `word_logp`: the cost it
        subtracts from a tail's score must be the very float word_logp
        gives, for every substring, inside the lexicon and out of it. The
        costs are caught as they are subtracted, through a `math.log` that
        returns a recording float. At a total of 100 the penalty of 10 and
        20 unknown letters rounds differently if summed another way."""
        lexicons = (SEG_LEXICON, GOLDEN_LEXICON, Lexicon(), Lexicon({"a": 1}), Lexicon({"cat": 3, "dog": 97}))
        cases = [(lex, body) for lex in lexicons
                 for body in ("makeitrain", "qzxqzx", "sunnydaytoday", "cafébest", "a", "dogqzxqzxqzxqzxqzxqzxcat")]
        expected = [[word_logp(lex, body[i:j]).hex() for i in reversed(range(len(body)))
                     for j in range(i + 1, len(body) + 1)] for lex, body in cases]
        costs = []

        class Cost(float):
            def __sub__(self, other):  # the out-of-lexicon length penalty
                return Cost(float(self) - other)

            def __rsub__(self, other):  # a tail's score less this cost
                costs.append(float(self).hex())
                return other - float(self)

        monkeypatch.setattr(textprep, "math", SimpleNamespace(log=lambda x: Cost(math.log(x)), inf=math.inf))
        for (lex, body), want in zip(cases, expected):
            costs.clear()
            segment_hashtag("#" + body, lex)
            assert costs == want, body

    def test_deterministic(self):
        first = segment_hashtag("#sunnydaytoday", SEG_LEXICON)
        assert first == segment_hashtag("#sunnydaytoday", SEG_LEXICON)


def dl_distance(a, b):
    """Unrestricted Damerau-Levenshtein distance (true metric)."""
    maxdist = len(a) + len(b)
    da = {}
    d = {(-1, -1): maxdist}
    for i in range(len(a) + 1):
        d[i, -1] = maxdist
        d[i, 0] = i
    for j in range(len(b) + 1):
        d[-1, j] = maxdist
        d[0, j] = j
    for i in range(1, len(a) + 1):
        db = 0
        for j in range(1, len(b) + 1):
            k = da.get(b[j - 1], 0)
            ell = db
            if a[i - 1] == b[j - 1]:
                cost = 0
                db = j
            else:
                cost = 1
            d[i, j] = min(
                d[i - 1, j - 1] + cost,
                d[i, j - 1] + 1,
                d[i - 1, j] + 1,
                d[k - 1, ell - 1] + (i - k - 1) + 1 + (j - ell - 1),
            )
        da[a[i - 1]] = i
    return d[len(a), len(b)]


def oracle_spell(word, lex):
    """Tiered scan of the whole lexicon by true edit distance."""
    if word in lex.counts:
        return word
    for distance in (1, 2):
        tier = [w for w in lex.counts if dl_distance(word, w) == distance]
        if tier:
            return min(tier, key=lambda w: (-lex.counts[w], w))
    return word


def enumerated_spell(word, lex):
    """Spell correction by enumeration: the lexicon words among the strings
    one edit from `word`, else those one edit from one of these
    (`spell_oracle.two_steps`). The reference for the memo and the letter
    index of `spell_correct`, which must give the same answer for every
    input."""
    if word in lex.counts:
        return word
    known = edits1(word) & lex.counts.keys() or [w for w in lex.counts if two_steps(word, w)]
    if not known:
        return word
    return min(known, key=lambda w: (-lex.counts[w], w))


def strings_up_to(letters, longest):
    """Every string over `letters` of at most `longest` characters."""
    return ["".join(t) for size in range(longest + 1) for t in itertools.product(letters, repeat=size)]


def _deletes2(word):
    """`word` and every string made from it by one or two deletions: the
    reference for the longest-common-subsequence test of the distance-2
    search."""
    one = {word[:i] + word[i + 1 :] for i in range(len(word))}
    return {word} | one | {w[:i] + w[i + 1 :] for w in one for i in range(len(w))}


def noisy_word(rng, word, letters):
    """`word` after one or two random deletes, inserts, replacements or
    swaps; inserted and replacing characters come from `letters`."""
    chars = list(word)
    for _ in range(int(rng.integers(1, 3))):
        kind, pos = int(rng.integers(4)), int(rng.integers(len(chars) + 1))
        letter = letters[int(rng.integers(len(letters)))]
        if kind == 0 and len(chars) > 1 and pos < len(chars):
            del chars[pos]
        elif kind == 1:
            chars.insert(pos, letter)
        elif kind == 2 and pos < len(chars):
            chars[pos] = letter
        elif pos < len(chars) - 1:
            chars[pos], chars[pos + 1] = chars[pos + 1], chars[pos]
    return "".join(chars)


class TestSpellCorrect:
    LEX = Lexicon({"the": 500, "then": 40, "they": 60, "cat": 5, "bat": 5})

    def test_in_lexicon_identity(self):
        assert spell_correct("the", self.LEX) == "the"

    def test_transposition(self):
        assert spell_correct("teh", self.LEX) == "the"
        # a swap, then an insert between the swapped letters: two edits,
        # though the optimal-string-alignment distance (restricted
        # Damerau-Levenshtein, which never edits a swapped pair again) is 3
        lex = Lexicon({"bxacd": 3})
        assert spell_correct("abcd", lex) == enumerated_spell("abcd", lex) == "bxacd"

    def test_no_candidate_unchanged(self):
        assert spell_correct("zzqqzz", self.LEX) == "zzqqzz"

    def test_tie_breaks_lexicographically(self):
        # "aat" is one replacement away from both cat and bat (equal counts)
        assert spell_correct("aat", self.LEX) == "bat"

    def test_distance_one_beats_distance_two(self):
        # one delete away from the rare word, two edits from the frequent one
        lex = Lexicon({"abcd": 1, "abcdef": 999})
        assert spell_correct("abcdx", lex) == "abcd"

    def test_matches_distance_oracle(self):
        rng = np.random.default_rng(11)
        words = list(SEG_LEXICON.counts)
        for _ in range(150):
            base = words[rng.integers(len(words))]
            noisy = list(base)
            for _ in range(rng.integers(1, 3)):
                kind = rng.integers(4)
                pos = int(rng.integers(len(noisy))) if noisy else 0
                letter = chr(97 + int(rng.integers(26)))
                if kind == 0 and len(noisy) > 1:
                    del noisy[pos]
                elif kind == 1:
                    noisy.insert(pos, letter)
                elif kind == 2:
                    noisy[pos] = letter
                elif len(noisy) > 1:
                    pos = min(pos, len(noisy) - 2)
                    noisy[pos], noisy[pos + 1] = noisy[pos + 1], noisy[pos]
            word = "".join(noisy)
            assert spell_correct(word, SEG_LEXICON) == oracle_spell(word, SEG_LEXICON), word

    # Inputs and lexicon words share each alphabet. Edits make only a-z
    # letters, so with the accented one some words are out of reach.
    @pytest.mark.parametrize("letters", ["abcdeilmnorstu", "aeilnrstéü"], ids=["a-z", "accented"])
    def test_matches_enumeration(self, letters):
        checked = 0
        for seed in range(20):
            rng = np.random.default_rng([seed, len(letters)])
            words = ["".join(rng.choice(list(letters), size=int(rng.integers(1, 5)))) for _ in range(40)]
            lex = Lexicon({w: int(rng.integers(1, 5)) for w in words})
            for _ in range(60):
                word = noisy_word(rng, words[int(rng.integers(len(words)))], letters)
                expected = enumerated_spell(word, lex)
                assert spell_correct(word, lex) == expected, (seed, word)
                assert spell_correct(word, lex) == expected, (seed, word)  # from the memo
                checked += word not in lex.counts and expected != word and not edits1(word) & lex.counts.keys()
        assert checked > 100  # answers that only the distance-2 search finds

    def test_edits_never_make_non_ascii_letters(self):
        lex = Lexicon({"café": 5, "über": 2})
        for word, fixed in [("cafe", "cafe"), ("uber", "uber"), ("acféx", "café"), ("übbrx", "über")]:
            assert spell_correct(word, lex) == enumerated_spell(word, lex) == fixed

    def test_letter_mask_layout(self):
        # bits 0-26: the bin occurs; bits 27-53: it occurs twice or more
        assert _letter_mask("abca") == 1 << 0 | 1 << 1 | 1 << 2 | 1 << 27
        assert _letter_mask("zé") == 1 << 25 | 1 << 26
        assert _letter_mask("éüé") == 1 << 26 | 1 << 53

    # The second alphabet holds a character outside the Basic Multilingual
    # Plane; words of 60-70 characters take the bit vector past 64 bits.
    @pytest.mark.parametrize("letters", ["abcdefghijklmnopqrstuvwxyz", "aeéü😀"], ids=["a-z", "accented"])
    def test_lcs_test_matches_two_deletion_sets(self, letters):
        rng = np.random.default_rng([13, len(letters)])
        chars = np.array(list(letters))
        met = 0
        for k in range(10_000):
            size = int(rng.integers(60, 71)) if k % 100 == 0 else int(rng.integers(0, 13))
            q = "".join(rng.choice(chars, size=size))
            # 0-4 edits from q, or (one pair in 5) a word drawn on its own
            w = q
            for _ in range(int(rng.integers(3))):
                w = noisy_word(rng, w, letters)
            if k % 5 == 4:
                w = "".join(rng.choice(chars, size=int(rng.integers(0, 13))))
            expected = not _deletes2(q).isdisjoint(_deletes2(w))
            assert _meet_after_two_deletes(_positions(q), len(q), w) == expected, (q, w)
            met += expected
        assert 2_000 < met < 8_000  # both answers are common

    # Each alphabet holds a-z letters, an accented one (edits never insert
    # it) and a character outside the Basic Multilingual Plane.
    def test_one_edit_test_matches_enumeration(self):
        words = strings_up_to("abé😀", 4)
        for word in words:
            edits = edits1(word)
            assert [w for w in words if _one_edit(word, w)] == [w for w in words if w in edits], word

    def test_sources_invert_the_edits(self):
        letters = ALPHABET + "é😀"
        words = strings_up_to("abé😀", 3)
        for target in words:
            sources = sources1(target, letters)
            assert [w for w in words if w in sources] == [w for w in words if target in edits1(w)], target
            if len(target) < 3:  # every source, those with other letters a-z too
                assert all(target in edits1(w) for w in sources), target

    # Asked only when no word is one edit away, as `_LetterIndex.search`
    # asks it; every pair of strings up to the given length.
    @pytest.mark.parametrize("letters, longest", [("abé😀", 3), ("aé😀", 4), ("ab", 5)])
    def test_two_edit_table_matches_two_steps(self, letters, longest):
        words = strings_up_to(letters, longest)
        asked = found = 0
        for word in words:
            edits = edits1(word)
            for w in words:
                if w not in edits:
                    expected = two_steps(word, w)
                    assert _two_edits(word, w) == expected, (word, w)
                    asked, found = asked + 1, found + expected
        assert 0.1 < found / asked < 0.9  # both answers are common

    def test_two_edit_pins(self):
        # a swap, then an insert between the swapped letters: a transposition
        # whose gap gets a letter a-z
        assert _two_edits("abcd", "bxacd") and two_steps("abcd", "bxacd")
        assert not _two_edits("abcd", "béacd")  # é is never inserted
        # two swaps that share a character rotate three
        assert _two_edits("cbé", "écb") and two_steps("cbé", "écb") and not _one_edit("cbé", "écb")
        lex = Lexicon({"écb": 1})
        assert spell_correct("cbé", lex) == enumerated_spell("cbé", lex) == "écb"
        # one swap and no second edit: the table says two edits or fewer, so
        # it is asked only when no word is one edit away
        assert _one_edit("é😀", "😀é") and not two_steps("é😀", "😀é") and _two_edits("é😀", "😀é")
        lex = Lexicon({"😀é": 1, "é😀xy": 9})
        assert spell_correct("é😀", lex) == enumerated_spell("é😀", lex) == "😀é"

    def test_index_windows_at_the_length_cap(self):
        # lexicon words of 253-257 characters; the index puts the last three
        # in one length, 255, and searches lengths 253-255 for them
        text = ("abcdefghijklmnopqrstuvwxy" * 11)[:259]
        lex = Lexicon({text[:size]: size for size in range(253, 258)})
        assert lex._letters.bounds[253:] == (0, 1, 2, 5)
        for size in range(251, 260):
            for word in ("z" + text[1:size], "zz" + text[2:size], "zzz" + text[3:size]):
                one = sorted(w for w in lex.counts if w in edits1(word))
                two = sorted(w for w in lex.counts if two_steps(word, w))
                assert sorted(lex._letters.search(word)) == (one or two), (size, word[:3])
                assert spell_correct(word, lex) == max(one or two or [word], key=len)  # counts grow with length

    def test_index_build_matches_letter_mask(self):
        rng = np.random.default_rng(14)
        special = ["café", "über", "naïve", "smile😀", "\ud83d", "ab" * 150, "aabbcc", "mississippi", "éüéü"]
        plain = {"".join(rng.choice(list("abcdeilmnorstu"), size=int(rng.integers(1, 13)))) for _ in range(5_000)}
        assert len(plain) > textprep._INDEX_BLOCK  # the build crosses a block boundary
        lex = Lexicon({w: 1 for w in rng.permutation(sorted(plain | set(special))).tolist()})
        # the build takes any mapping, not only a checked Lexicon: "" between others, and last
        for counts in (lex.counts, {"a": 1, "": 1, "bb": 1}, {"bb": 1, "": 1}):
            index = _LetterIndex.build(counts)
            assert index.words == tuple(sorted(counts, key=len))  # each length keeps the lexicon's order
            assert index.masks.tolist() == [_letter_mask(w) for w in index.words]
            capped = [min(len(w), 255) for w in index.words]
            assert index.bounds == tuple(bisect_left(capped, k) for k in range(257))

    def test_index_build_temporaries_are_small(self):
        # 30k words, as the preprocess-oov benchmark lexicon; the build's own
        # temporaries stay well below that workload's peak-RSS bound (4.3 MB)
        rng = np.random.default_rng(15)
        words = set()
        while len(words) < 30_000:
            words.add("".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=int(rng.integers(3, 13)))))
        lex = Lexicon({w: 1 for w in words})
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            index = _LetterIndex.build(lex.counts)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index.words) == 30_000
        assert peak - kept < 2e6

    def test_words_longer_than_255(self):
        word = "abc" * 86  # the letter index caps lengths at 255
        lex = Lexicon({word: 2})
        assert spell_correct("ba" + word[2:-2] + "cb", lex) == word  # two swaps
        assert spell_correct(word[1:-1], lex) == word  # two deletes
        assert spell_correct(word[2:-1], lex) == word[2:-1]

    def test_memo_keeps_every_answer(self):
        lex = Lexicon({"the": 500, "cat": 5})
        for word in ("teh", "qqqqqq", "caatt"):
            assert spell_correct(word, lex) == enumerated_spell(word, lex)
        assert lex._spelled == {"teh": "the", "qqqqqq": "qqqqqq", "caatt": "cat"}

    def test_memo_stops_growing_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(textprep, "_SPELL_MEMO_MAX", 2)
        lex = Lexicon({"the": 500, "cat": 5})
        for word in ("teh", "qqqqqq", "caatt", "caatt"):
            assert spell_correct(word, lex) == enumerated_spell(word, lex)
        assert lex._spelled == {"teh": "the", "qqqqqq": "qqqqqq"}

    def test_result_within_distance_two(self):
        rng = np.random.default_rng(12)
        for _ in range(80):
            word = "".join(chr(97 + c) for c in rng.integers(26, size=rng.integers(3, 8)))
            fixed = spell_correct(word, SEG_LEXICON)
            assert dl_distance(word, fixed) <= 2


class TestPreprocess:
    def test_composed_example(self):
        assert preprocess("@user1 #makeitrain", SEG_LEXICON) == ["<user>", "make", "it", "rain"]

    def test_empty(self):
        assert preprocess("", SEG_LEXICON) == []

    def test_targetword_pipeline(self):
        assert preprocess("It's [#TARGETWORD#]", SEG_LEXICON) == ["it's", "<targetword>"]

    def test_spell_gate_skips_short_and_nonalpha(self):
        # "teh" (3 letters) and "it's" (apostrophe) pass through untouched
        assert preprocess("teh it's", SEG_LEXICON) == ["teh", "it's"]

    def test_spell_correction_applies_to_long_oov(self):
        assert preprocess("raain", SEG_LEXICON) == ["rain"]

    def test_empty_lexicon_skips_spelling(self):
        assert preprocess("raain", Lexicon()) == ["raain"]

    def test_deterministic(self):
        raw = CORPUS[1]
        assert preprocess(raw, SEG_LEXICON) == preprocess(raw, SEG_LEXICON)

    def test_a_mark_without_precomposed_form_stays_in_its_word(self):
        assert preprocess("x\u0301yz ok", Lexicon()) == ["x\u0301yz", "ok"]

    def test_combining_accents_compose_first(self):
        composed = "café olé"
        decomposed = unicodedata.normalize("NFD", composed)
        assert decomposed != composed
        assert preprocess(decomposed, GOLDEN_LEXICON) == preprocess(composed, GOLDEN_LEXICON) == ["café", "olé"]


# Preprocessing golden: seeded raw tweets over a lexicon with accented words.
# The digests were recorded from the tuple-building segmentation and the
# dataclass tokens that the flat DP and the NamedTuple tokens replaced.
GOLDEN_LEXICON = Lexicon({**SEG_LEXICON.counts, "café": 12, "naïve": 5, "über": 3, "déjà": 4, "vu": 6})
GOLDEN_ENTITIES = (
    TARGETWORD_PLACEHOLDER, "http://a.io/x?q=1", "www.example.com", "bob.smith+x@mail.example.org",
    "@user1", "@Ölaf", ":-)", ":))", "<3", "2018-12-25", "12/25/2018", "3:30pm", "7 am", "$20", "5,50€",
    "555-123-4567", "+1 (555) 123-4567", "U.S.A.", "s**t", "f*ck*ng", "*very*", "*naïve*", "1,000", "3rd",
    "-2.5", "!!!", "...", "?", "&", "don't", "Café", "NAÏVE", "Über", "déjà-vu",
)
GOLDEN_PREPROCESS_SHA256 = "41b03861d30a87effd8590bf1e89b293cda92e17906a6b57c1f849562b266b61"
GOLDEN_TOKENIZE_SHA256 = "78f29e2138a57c9538a24901a070d4a7b788632da281aa4de005d3f504f8ba42"


def golden_tweets():
    """300 tweets of 3-9 pieces: lexicon words, their typos one or two
    edits away, hashtags (camel case, `##`, trailing digits) and entities
    of every other token kind, accented letters among them."""
    rng = np.random.default_rng(2022)
    words = sorted(GOLDEN_LEXICON.counts)
    long_words = [w for w in words if len(w) >= 4]

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    def typo(word, edits):
        for _ in range(edits):
            i, op, ch = int(rng.integers(len(word))), int(rng.integers(4)), chr(97 + int(rng.integers(26)))
            if op == 0 and len(word) > 1:
                word = word[:i] + word[i + 1:]
            elif op == 1 and i + 1 < len(word):
                word = word[:i] + word[i + 1] + word[i] + word[i + 2:]
            elif op == 2:
                word = word[:i] + ch + word[i + 1:]
            else:
                word = word[:i] + ch + word[i:]
        return word

    def hashtag():
        parts = [pick(words) for _ in range(int(rng.integers(1, 4)))]
        if rng.random() < 0.3:
            parts = [p.capitalize() for p in parts]
        if rng.random() < 0.2:
            parts.append(str(int(rng.integers(100))))
        return "#" * int(rng.integers(1, 3)) + "".join(parts)

    tweets = []
    for _ in range(300):
        pieces = []
        for _ in range(int(rng.integers(3, 10))):
            r = rng.random()
            if r < 0.3:
                pieces.append(pick(words))
            elif r < 0.45:
                pieces.append(typo(pick(long_words), int(rng.integers(1, 3))))
            elif r < 0.6:
                pieces.append(hashtag())
            else:
                pieces.append(pick(GOLDEN_ENTITIES))
        tweets.append(" ".join(pieces))
    return tweets


def sha256_json(rows):
    return hashlib.sha256(json.dumps(rows, ensure_ascii=False).encode("utf-8")).hexdigest()


class TestGolden:
    def test_corpus_covers_every_token_kind(self):
        seen = {token.kind for raw in golden_tweets() for token in tokenize(raw)}
        assert seen == set(TokenKind)

    def test_preprocess_tokens_unchanged(self):
        tweets = golden_tweets()
        assert sha256_json([preprocess(raw, GOLDEN_LEXICON) for raw in tweets]) == GOLDEN_PREPROCESS_SHA256

    def test_tokenize_fields_unchanged(self):
        rows = [[[token.surface, token.kind.value] for token in tokenize(raw)] for raw in golden_tweets()]
        assert sha256_json(rows) == GOLDEN_TOKENIZE_SHA256


# The tokenizer without its two shortcuts (the non-space lookahead and the
# `PLAIN` alternative): the group table alone.
TABLE_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in textprep._COMPONENTS))


def table_tokens(raw):
    read = raw.translate(textprep._CLASSES)  # as tokenize reads it
    return [(raw[m.start() : m.end()], TokenKind[m.lastgroup]) for m in TABLE_RE.finditer(read)]


LETTER_EMOTICONS = [e for e in textprep.EMOTICONS if re.match(textprep._L, e)]
# What a letter run can meet: letter-initial emoticons, every follower that
# `PLAIN` must refuse or accept, digits (an Arabic-Indic one too), numeric
# characters that are not digits, accented and upper-case letters, combining
# marks (non-spacing, spacing and enclosing), odd whitespace and fragments
# of URLs, acronyms, e-mail addresses and the placeholder.
ORACLE_ALPHABET = (
    LETTER_EMOTICONS
    + list(",!?;.:'’-*_@+#")
    + list("0123456789٣") + list("½²Ⅻ")
    + list("abcdmpwxyzDPTOBXé") + ["É", "Ü", "\u0301", "\u0308", "\u093e", "\u20dd"]
    + [" ", " ", " ", "\u00a0", "\u2028", "\t", "\n"]
    + ["http://", "www.", "a.b.", "x@y.z", TARGETWORD_PLACEHOLDER]
)


class TestPlainAlternative:
    """The shortcuts are not rules: the table alone gives the same tokens.
    It is compiled from the module's own `_COMPONENTS`, so both sides match
    times with the same pattern."""

    def test_guard_covers_every_letter_initial_emoticon(self):
        for emoticon in LETTER_EMOTICONS:
            assert [(t.surface, t.kind) for t in tokenize(emoticon + " ok")] == [
                (emoticon, TokenKind.EMOTICON), ("ok", TokenKind.WORD)]

    @pytest.mark.parametrize("raw", ["word", "wórd ok", "Hi, there! ok? yes;"])
    def test_plain_runs_take_the_fast_alternative(self, raw):
        groups = {m.lastgroup for m in textprep._TOKEN_RE.finditer(raw)}
        assert groups <= {"PLAIN", "PUNCT"} and "PLAIN" in groups

    @pytest.mark.parametrize("raw", ["www.x.io", "http://x", "xD", "D: no", "a.b. x", "x.y@z.org",
                                     "don't", "well-known", "s**t", "ab_c@d.io", "abc1@d.io", "x+y@z.io"])
    def test_other_followers_leave_the_run_to_the_table(self, raw):
        assert textprep._TOKEN_RE.match(raw).lastgroup != "PLAIN"
        assert [(t.surface, t.kind) for t in tokenize(raw)] == table_tokens(raw)

    def test_random_strings_match_the_table(self):
        rng = random.Random(7)
        for _ in range(100_000):
            raw = "".join(rng.choices(ORACLE_ALPHABET, k=rng.randint(1, 12)))
            assert [(t.surface, t.kind) for t in tokenize(raw)] == table_tokens(raw), raw

    def test_word_tokens_hold_letters_marks_and_joiners(self):
        """Over the alphabet above and any other code point, a WORD token
        holds only letters (`str.isalpha`), combining marks and ' ’ -."""
        rng = random.Random(11)
        for _ in range(20_000):
            raw = "".join(rng.choice(ORACLE_ALPHABET) if rng.random() < 0.8 else chr(rng.randrange(0x110000))
                          for _ in range(rng.randint(1, 12)))
            for surface, kind in tokenize(raw):
                if kind is TokenKind.WORD:
                    assert all(ch.isalpha() or ch in "'’-" or unicodedata.category(ch)[0] == "M"
                               for ch in surface), raw

    def test_golden_corpus_matches_the_table(self):
        for raw in golden_tweets():
            assert [(t.surface, t.kind) for t in tokenize(raw)] == table_tokens(raw), raw

    def test_tokens_are_plain_named_tuples(self):
        token = tokenize("Hi")[0]
        assert type(token) is textprep.Token and token == ("Hi", TokenKind.WORD) and token.surface == "Hi"
        tagged = normalize(tokenize("@Hi Hi"))
        assert [type(t) for t in tagged] == [textprep.Token] * 2
        assert tagged == [("<user>", TokenKind.USER), ("hi", TokenKind.WORD)]


class TestUnicodeClasses:
    """The classes the tokenizer reads a text by, against this Python's
    unicodedata."""

    def test_table_matches_unicodedata(self):
        """Over every code point, a fresh map (the module's own would keep
        all 0x110000 entries) gives each mark `_MARK` and each No/Nl
        character `_NUMERIC`, and `_L` takes exactly the `str.isalpha` ones."""
        everything = "".join(map(chr, range(0x110000)))
        read = everything.translate(textprep._Classes())
        letters = {m.start() for m in re.finditer(textprep._L, read)}
        as_class = dict.fromkeys(["Mn", "Mc", "Me"], textprep._MARK) | dict.fromkeys(["No", "Nl"], textprep._NUMERIC)
        differ = [
            cp for cp, (ch, seen) in enumerate(zip(everything, read))
            if seen != as_class.get(unicodedata.category(ch), ch) or (cp in letters) != ch.isalpha()
        ]
        assert differ == []

    def test_every_mark_continues_a_word(self):
        marks = [chr(cp) for cp in range(0x110000) if unicodedata.category(chr(cp)) in ("Mn", "Mc", "Me")]
        assert [f"U+{ord(ch):04X}" for ch in marks
                if tokenize(f"ab{ch}c") != [(f"ab{ch}c", TokenKind.WORD)]] == []
