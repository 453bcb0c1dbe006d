"""Tweet-aware tokenization, normalization, hashtag segmentation and spell
correction.

The tokenizer is a single alternation of named regex groups, tried left to
right at each position. Order matters: the target-word placeholder must win
over everything, URLs must win over emoticons (``http://`` contains ``:/``),
dates must win over phone numbers, and the single-character catch-all must
come last so that no non-whitespace character is ever dropped. Two
shortcuts give the table's tokens faster. A position at whitespace fails
one lookahead for a non-space character, since no alternative starts
there. And one fast alternative, `PLAIN`, is tried before the table: a
run of letters that ends at whitespace, at the end of the text or before
one of `, ! ? ;`, and does not start a letter-initial emoticon. No group
of the table can match such a run except `WORD`, which matches it whole.
A token is a `NamedTuple` of surface and kind, built with `tuple.__new__`
to skip its Python-level `__new__`.

Hashtag segmentation weighs each substring once, in a dynamic program over
three flat lists, with no tuple per candidate and no memo; the per-word
score it inlines is kept in the tests as the oracle `word_logp`.

Spell correction gives the answer of enumerating every string one and two
edits away (Norvig-style candidates) but builds none of them. The lexicon's
words are kept in order of length, each with a packed letter mask (8 bytes
a word, built with numpy by the first out-of-lexicon search, not when the
lexicon is read). One vectorised pass over the words of nearby length keeps
those that one or two edits could reach; an O(n) comparison confirms one
edit, and for two a bit-parallel longest-common-subsequence test (Allison
and Dix, 1986) then an edit table (Lowrance and Wagner, 1975). Each answer
is memoised on the immutable `Lexicon`, per input surface, up to
`_SPELL_MEMO_MAX` surfaces.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from importlib import resources
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import EmocapsError, integer_cells, read_blocks, two_column_blocks

TARGETWORD_PLACEHOLDER = "[#TARGETWORD#]"

_SPELL_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_LETTER_BIN = {ch: i for i, ch in enumerate(_SPELL_ALPHABET)}
_SPELL_MIN_LEN = 4  # pipeline-level gate; spell_correct itself is unrestricted
_SPELL_MEMO_MAX = 100_000  # answers memoised per Lexicon, about 10 MB at most
_OOV_LEN_PENALTY = 3.0  # per-character log-prob penalty for out-of-lexicon words
_INDEX_BLOCK = 1024  # words per numpy pass when the letter index is built


def _load_emoticons() -> list[str]:
    text = (resources.files("emocaps") / "data" / "emoticons.txt").read_text("utf-8")
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    # longest first so ":))" beats ":)" at the same position
    return sorted(set(entries), key=len, reverse=True)


EMOTICONS = _load_emoticons()

# Letters including accented ones, but not digits or underscore.
_L = r"[^\W\d_]"

_COMPONENTS = [
    ("TARGETWORD", re.escape(TARGETWORD_PLACEHOLDER)),
    ("URL", r"https?://\S+|www\.\S+"),
    ("EMAIL", r"[\w.+-]+@[\w-]+(?:\.[\w-]+)+"),
    ("USER", r"@\w+"),
    ("HASHTAG", r"\#+\w+"),
    ("EMOTICON", "|".join(re.escape(e) for e in EMOTICONS)),
    ("DATE", r"\d{4}-\d{1,2}-\d{1,2}|\d{1,2}[/-]\d{1,2}(?:[/-]\d{2,4})?"),
    ("TIME", r"\d{1,2}:\d{2}(?::\d{2})?(?:\s?[aApP][mM](?!" + _L + r"))?|\d{1,2}\s?[aApP][mM](?!" + _L + ")"),
    ("MONEY", r"[$£€]\s?\d+(?:[.,]\d+)*|\d+(?:[.,]\d+)*\s?[$£€]"),
    ("PHONE", r"(?:\+?\d{1,2}[\s.-])?(?:\(?\d{3}\)?[\s.-])?\d{3}[\s.-]\d{4}"),
    ("ACRONYM", r"(?:[A-Za-z]\.){2,}"),
    ("CENSORED", _L + r"+(?:\*+" + _L + r"+)+"),
    ("EMPHASIS", r"\*+" + _L + r"+(?:['’-]" + _L + r"+)*\*+"),
    ("NUMBER", r"[+-]?\d+(?:[.,]\d+)*(?:st|nd|rd|th)?"),
    ("WORD", _L + r"+(?:['’-]" + _L + r"+)*"),
    ("PUNCT", r"[.?!,;:]{2,}|\S"),
]

# A run of letters that no group above `WORD` can claim: it does not start
# a letter-initial emoticon, and what follows it can extend no URL (`www.`,
# `http:`), acronym, e-mail address (`. _ + @`, digits), emoticon (`D:`),
# word (`' ’ -`) or censored word (`*`).
_PLAIN = ("(?!" + "|".join(re.escape(e) for e in EMOTICONS if re.match(_L, e)) + ")"
          + _L + r"+(?![^\s,!?;])")

# Every alternative starts at a non-space character, so at whitespace one
# lookahead fails where all seventeen alternatives were tried in turn.
_TOKEN_RE = re.compile(
    r"(?=\S)(?:" + "|".join(f"(?P<{name}>{pattern})" for name, pattern in [("PLAIN", _PLAIN), *_COMPONENTS]) + ")"
)

# One kind per tokenizer group, in match order, valued by its lowercase name.
TokenKind = Enum("TokenKind", [(name, name.lower()) for name, _ in _COMPONENTS], module=__name__)
_KIND_OF_GROUP = {"PLAIN": TokenKind.WORD, **{kind.name: kind for kind in TokenKind}}


class Token(NamedTuple):
    surface: str
    kind: TokenKind


# Reserved surfaces produced by normalize(). Hashtags are segmented into
# plain words instead of being tagged, so they are absent here.
TAG_SURFACES = {
    kind: f"<{kind.lower()}>"
    for kind in ("URL", "USER", "EMAIL", "PHONE", "DATE", "TIME", "MONEY", "TARGETWORD")
}
_TAG_OF_KIND = {TokenKind[name]: tag for name, tag in TAG_SURFACES.items()}
_TAGGED = tuple(_TAG_OF_KIND)  # `in` compares by identity first, hashing nothing


def tokenize(raw: str) -> list[Token]:
    """Split raw tweet text into typed tokens.

    Total over any input: every non-whitespace character lands in exactly one
    token (the final single-character catch-all guarantees coverage).
    """
    new, kind_of = tuple.__new__, _KIND_OF_GROUP
    return [new(Token, (match.group(), kind_of[match.lastgroup])) for match in _TOKEN_RE.finditer(raw)]


def normalize(tokens: list[Token]) -> list[Token]:
    """Lowercase surfaces and replace tag-like tokens with reserved surfaces.

    Tokens of a kind in TAG_SURFACES (the target-word placeholder among
    them) map to their fixed tags; everything else (including emoticons) is
    lowercased so no uppercase letter survives. Hashtags pass through
    unchanged apart from case; they are expanded later by segmentation.
    """
    new = tuple.__new__
    return [new(Token, (_TAG_OF_KIND[kind] if kind in _TAGGED else surface.lower(), kind)) for surface, kind in tokens]


@dataclass(frozen=True)
class Lexicon:
    """Unigram counts backing hashtag segmentation and spell correction.

    Immutable once built: the constructor, which `from_file` also ends in,
    checks and copies the mapping it is given, and `counts` is a read-only
    view of that copy, so the spelling memo and the letter index it carries
    cannot go stale. Neither takes part in comparison or repr. `total`
    is the sum of the counts. Words are non-empty, lowercase and free of the
    censoring `*`, and counts are non-negative ints (a bool is not an int):
    the first entry that breaks a rule raises ValueError."""

    counts: Mapping[str, int] = field(default_factory=dict)
    total: int = field(init=False)
    _spelled: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = dict(self.counts)
        _check_entries(counts.keys(), counts.values())
        object.__setattr__(self, "counts", MappingProxyType(counts))
        object.__setattr__(self, "total", sum(counts.values()))

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        """Read "word<TAB>count" lines, skipping blank ones, and sum the
        counts of a repeated word; an error is an EmocapsError naming the
        file and its first bad line."""
        return read_blocks(path, cls._parse)

    @classmethod
    def _parse(cls, path, text: str, block_chars: int) -> "Lexicon":
        """The lexicon in `text`, parsed a block at a time. A block that
        fails a check raises the error of its first line, which is the
        failing line when a block is one line (`block_chars` 0)."""
        counts: dict[str, int] = {}
        for lineno, rows, columns in two_column_blocks(text, block_chars):
            try:
                words, count_texts = columns  # None: a row holds no tab or more than one
                block_counts = integer_cells(count_texts)
            except (TypeError, ValueError):
                raise EmocapsError(f"{path}:{lineno}: expected 'word<TAB>count', got {rows[0]!r}") from None
            try:  # every entry of the block before any is summed: a sum could hide a bad count
                _check_entries(words, block_counts)
            except ValueError as bad:
                raise EmocapsError(f"{path}:{lineno}: {bad}") from None
            for word, count in zip(words, block_counts):
                counts[word] = counts.get(word, 0) + count
        return cls(counts)

    @cached_property
    def _letters(self) -> "_LetterIndex":
        """Words by length and their letter masks, built by the first
        out-of-lexicon search."""
        return _LetterIndex.build(self.counts)


def _check_entries(words, counts) -> None:
    """Raise ValueError naming the first of the parallel `words` and
    `counts` that breaks a lexicon rule: a word is non-empty, lowercase and
    free of `*`, and a count is a non-negative int (a bool is not an int)."""
    letters = "".join(words)  # one test of all entries; only a set that fails it is walked, to name its entry
    if ("" in words or "*" in letters or letters != letters.lower()
            or not set(map(type, counts)) <= {int} or min(counts, default=0) < 0):
        for word, count in zip(words, counts):
            if not word or "*" in word or word != word.lower():
                raise ValueError(f"bad lexicon word: {word!r}")
            if type(count) is not int:
                raise ValueError(f"count for {word!r} is not an int: {count!r}")
            if count < 0:
                raise ValueError(f"negative count for {word!r}")


def segment_hashtag(tag: str, lex: Lexicon) -> list[str]:
    """Split a hashtag body into its best word sequence under the unigram model.

    Maximizes the summed word log-probability: log(count / total), or
    log(1 / total) less `_OOV_LEN_PENALTY` a letter out of the lexicon.
    Exact ties prefer fewer words, then the smallest word tuple.

    A right-to-left dynamic program keeps three flat lists: per suffix of
    the body, the negated score and the word count of its best split, and
    the end of that split's first word. It weighs each of the n(n+1)/2
    substrings once, computing the word's score where it is used. When
    two splits of a suffix tie on score and count, the first word of one
    is a prefix of the other's, so the smaller word tuple is the split
    whose first word ends earlier: the one tried first, kept on a tie.
    """
    body = tag.lstrip("#").lower()
    if not body:
        return [tag]
    n = len(body)
    count_of, total, log = lex.counts.get, lex.total, math.log
    oov = log(1.0 / max(total, 1))
    score, size, cut = [0.0] * (n + 1), [0] * (n + 1), [n] * (n + 1)
    for i in range(n - 1, -1, -1):
        best = math.inf
        for j in range(i + 1, n + 1):
            count = count_of(body[i:j], 0)
            s = score[j] - (log(count / total) if count > 0 else oov - _OOV_LEN_PENALTY * (j - i))
            if s < best or (s == best and size[j] < fewest):
                best, fewest, end = s, size[j], j
        score[i], size[i], cut[i] = best, fewest + 1, end
    words, i = [], 0
    while i < n:
        words.append(body[i : cut[i]])
        i = cut[i]
    return words


def spell_correct(word: str, lex: Lexicon) -> str:
    """Return the closest lexicon word within edit distance 2, else the input.

    Distance-1 candidates beat distance-2 ones; among candidates at the same
    distance the highest count wins, ties broken lexicographically. An edit
    deletes a character, swaps two adjacent ones, or replaces or inserts a
    letter a-z. The candidates come from `_LetterIndex.search`, which builds
    no edited string. Every answer, "unchanged" too, is kept in the
    lexicon's memo and returned again for the same input, until the memo
    holds `_SPELL_MEMO_MAX` answers; later ones are computed each time.
    """
    if word in lex.counts:
        return word
    fixed = lex._spelled.get(word)
    if fixed is None:
        known = lex._letters.search(word)
        fixed = min(known, key=lambda w: (-lex.counts[w], w)) if known else word
        if len(lex._spelled) < _SPELL_MEMO_MAX:
            lex._spelled[word] = fixed
    return fixed


@dataclass(frozen=True)
class _LetterIndex:
    """Every lexicon word's `_letter_mask`, the words in order of length
    capped at 255: 8 bytes a word besides the tuple of words."""

    words: tuple[str, ...]
    masks: np.ndarray  # uint64
    bounds: tuple[int, ...]  # words[bounds[k] : bounds[k + 1]] are those of capped length k

    @classmethod
    def build(cls, counts) -> "_LetterIndex":
        """Sort the words stably by length and compute their `_letter_mask`
        with numpy, `_INDEX_BLOCK` words at a time to bound the temporaries."""
        words = tuple(sorted(counts, key=len))
        sizes = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
        masks = np.zeros(len(words), dtype=np.uint64)  # as `_letter_mask("")`
        for start in range(0, len(words), _INDEX_BLOCK):
            block = sizes[start : start + _INDEX_BLOCK]
            text = "".join(words[start : start + _INDEX_BLOCK])
            # one uint32 per character; "surrogatepass" keeps a lone surrogate, which a word may hold
            codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
            # a-z map to bins 0-25; every other code wraps or lies above 25
            bins = np.minimum(codes - np.uint32(97), np.uint32(26))
            keys = np.repeat(np.arange(block.size, dtype=np.uint32) << 5, block) | bins
            keys.sort()  # the word index is the high part: each word stays in place
            # a bin's first character in a word sets bit `bin`, any later one bit 27 + `bin`
            shifts = (keys & 31).astype(np.uint8)
            shifts[1:][keys[1:] == keys[:-1]] += np.uint8(27)
            firsts = np.cumsum(block) - block
            filled = block > 0  # reduceat would give an empty word the next one's first bit
            masks[start : start + block.size][filled] = np.bitwise_or.reduceat(
                np.uint64(1) << shifts, firsts[filled]
            )
        bounds = np.searchsorted(np.minimum(sizes, 255, out=sizes), np.arange(257))
        return cls(words=words, masks=masks, bounds=tuple(bounds.tolist()))

    def search(self, word: str) -> list[str]:
        """The lexicon words one edit from `word`, which is not one of
        them, or else those two edits away.

        k edits change the length by at most k and flip at most 2k mask
        bits, one fewer per character of length change: one xor and popcount
        over the words of lengths n-2 to n+2 serves both tiers. On the
        30k-word `preprocess-oov` lexicon about 7 words pass for one edit
        and go to `_one_edit`; about 150 pass for two, and the 2 or so that
        `_meet_after_two_deletes` keeps go to `_two_edits`."""
        n, bounds, words = min(len(word), 255), self.bounds, self.words
        low = bounds[max(n - 2, 0)]
        flips = np.bitwise_count(self.masks[low : bounds[min(n + 2, 255) + 1]] ^ np.uint64(_letter_mask(word)))
        positions = _positions(word)
        for k, near in ((1, lambda w: _one_edit(word, w)),
                        (2, lambda w: _meet_after_two_deletes(positions, len(word), w) and _two_edits(word, w))):
            found = []
            for size in range(max(n - k, 0), min(n + k, 255) + 1):
                hits = np.flatnonzero(flips[bounds[size] - low : bounds[size + 1] - low] <= 2 * k - abs(size - n))
                found += [w for w in map(words.__getitem__, (hits + bounds[size]).tolist()) if near(w)]
            if found:
                return found
        return []


def _letter_mask(word: str) -> int:
    """Bit b is set when letter bin b occurs in `word`, bit 27 + b when it
    occurs at least twice; bins 0-25 are a-z, bin 26 holds every other
    character."""
    mask = 0
    for ch in word:
        bit = 1 << _LETTER_BIN.get(ch, 26)
        mask |= bit << 27 if mask & bit else bit
    return mask


def _positions(word: str) -> dict[str, int]:
    """Per character of `word`, the bits of the positions where it occurs."""
    bits: dict[str, int] = {}
    for i, ch in enumerate(word):
        bits[ch] = bits.get(ch, 0) | 1 << i
    return bits


def _meet_after_two_deletes(positions: dict[str, int], n: int, other: str) -> bool:
    """Whether the length-`n` word of `positions` and `other` become the
    same string after at most two deletions from each: exactly when their
    longest common subsequence is at most two shorter than the longer word.
    That length is the count of zero bits among the low `n` of `v` after
    Allison and Dix's bit-parallel update (1986) over `other`; Python ints
    put no limit on `n`."""
    full = (1 << n) - 1
    v = full
    for ch in other:
        u = v & positions.get(ch, 0)
        v = (v + u) | (v - u)
    return n - (v & full).bit_count() >= max(n, len(other)) - 2


def _one_edit(word: str, w: str) -> bool:
    """Whether one edit turns `word` into `w`. Past their common prefix `w`
    deletes a character, inserts or puts a letter a-z in place of one, or
    swaps two. An insert is looked for at the first difference: inserting
    the letter anywhere in the run of equal characters ending there makes
    the same string. A word is one edit from itself when it holds a letter
    a-z or two equal neighbours."""
    n, m = len(word), len(w)
    p, stop = 0, min(n, m)
    while p < stop and word[p] == w[p]:
        p += 1
    if m != n:
        return word[p + 1 :] == w[p:] if m == n - 1 else m == n + 1 and w[p] in _LETTER_BIN and w[p + 1 :] == word[p:]
    if p == n:
        return any(ch in _LETTER_BIN for ch in word) or any(map(str.__eq__, word, word[1:]))
    return (w[p] in _LETTER_BIN and word[p + 1 :] == w[p + 1 :]
            or w[p : p + 2] == word[p : p + 2][::-1] and word[p + 2 :] == w[p + 2 :])


def _two_edits(word: str, w: str) -> bool:
    """Whether two edits turn `word` into `w`, asked only when no lexicon
    word is one edit away: Lowrance and Wagner's edit table (1975), whose
    transposition may also delete the characters between the swapped pair
    and insert others, under the edits' rule that a replacing or inserted
    character, in such a gap too, is a letter a-z. Two swaps sharing a
    character rotate three, at cost 2. `d[i + 1][j + 1]` holds the edits
    from `word[:i]` to `w[:j]`, filled only within 2 of the diagonal; the
    rest, row and column 0 too, read as 3, out of reach."""
    n, m = len(word), len(w)
    letter = [ch in _LETTER_BIN for ch in w]
    d = [[3] * (m + 2) for _ in range(n + 2)]
    d[1][1 : min(m, 2) + 2] = [j if all(letter[:j]) else 3 for j in range(min(m, 2) + 1)]
    last_row: dict[str, int] = {}
    for i, a in enumerate(word, 1):
        above, row, col = d[i], d[i + 1], 0  # col: the last `a` in the band before j; one further back costs 3
        row[1] = i
        for j in range(max(i - 2, 1), min(i + 2, m) + 1):
            b, k, last, free = w[j - 1], last_row.get(w[j - 1], 0), col, letter[j - 1]
            col = j if a == b else col
            cost = min(above[j + 1] + 1, row[j] + 1 if free else 3, above[j] + (a != b) if free or a == b else 3)
            if k and last and all(letter[last : j - 1]):  # swap a and b, with a gap deleted and one inserted
                cost = min(cost, d[k][last] + i - k + j - last - 1)
            if i > 2 and j > 2 and w[j - 3 : j] in (word[i - 2 : i] + word[i - 3], a + word[i - 3 : i - 1]):
                cost = min(cost, d[i - 2][j - 2] + 2)
            row[j + 1] = cost
        last_row[a] = i
    return d[n + 1][m + 1] <= 2


def preprocess(raw: str, lex: Lexicon) -> list[str]:
    """Full pipeline: compose to NFC, tokenize, normalize, segment hashtags,
    spell-correct.

    Composing first keeps a word written with combining accents (NFD) one
    token, as its composed form is. Spell correction only touches purely
    alphabetic out-of-lexicon surfaces of length >= 4 (short slang is left
    alone), and is skipped entirely when the lexicon is empty.
    """
    surfaces = []
    for token in normalize(tokenize(unicodedata.normalize("NFC", raw))):
        if token.kind is TokenKind.HASHTAG:
            surfaces.extend(segment_hashtag(token.surface, lex))
        else:
            surfaces.append(token.surface)
    if lex.total == 0:
        return surfaces
    out = []
    for surface in surfaces:
        if (
            len(surface) >= _SPELL_MIN_LEN
            and surface.isalpha()
            and surface not in lex.counts
        ):
            out.append(spell_correct(surface, lex))
        else:
            out.append(surface)
    return out
