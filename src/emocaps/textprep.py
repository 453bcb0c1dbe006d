"""Tweet-aware tokenization, normalization, hashtag segmentation and spell
correction.

The tokenizer is a single alternation of named regex groups, tried left to
right at each position. Order matters: the target-word placeholder must win
over everything, URLs must win over emoticons (``http://`` contains ``:/``),
dates must win over phone numbers, and the single-character catch-all must
come last so that no non-whitespace character is ever dropped. A token is
a `NamedTuple` of surface and kind.

Hashtag segmentation weighs each substring once, in a dynamic program over
three flat lists, with no tuple per candidate and no memo; the per-word
score it inlines is kept in the tests as the oracle `word_logp`.

Spell correction gives the answer of enumerating every string one and two
edits away (Norvig-style candidates) without building the two-edit strings.
Distance 1 does enumerate, which is cheap. Distance 2 filters the whole
lexicon at once by length and by a packed letter mask; on a 30k-word
lexicon about a hundred words survive. A bit-parallel longest-common-
subsequence test (Allison and Dix, 1986) drops most of those, and the rest
are checked exactly by undoing one edit. The masks are built with numpy on
the first distance-2 search, not when the lexicon is read, and take 9 bytes
a word; a deletion index such as SymSpell's would take far more memory.
Each answer is memoised on the immutable `Lexicon`, per input surface, up
to `_SPELL_MEMO_MAX` surfaces.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from importlib import resources
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import MalformedLine, text_lines

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
    ("TIME", r"\d{1,2}:\d{2}(?::\d{2})?(?:\s?[ap]m)?|\d{1,2}\s?[ap]m(?![a-z])"),
    ("MONEY", r"[$£€]\s?\d+(?:[.,]\d+)*|\d+(?:[.,]\d+)*\s?[$£€]"),
    ("PHONE", r"(?:\+?\d{1,2}[\s.-])?(?:\(?\d{3}\)?[\s.-])?\d{3}[\s.-]\d{4}"),
    ("ACRONYM", r"(?:[A-Za-z]\.){2,}"),
    ("CENSORED", _L + r"+(?:\*+" + _L + r"+)+"),
    ("EMPHASIS", r"\*+" + _L + r"+(?:['’-]" + _L + r"+)*\*+"),
    ("NUMBER", r"[+-]?\d+(?:[.,]\d+)*(?:st|nd|rd|th)?"),
    ("WORD", _L + r"+(?:['’-]" + _L + r"+)*"),
    ("PUNCT", r"[.?!,;:]{2,}|\S"),
]

_TOKEN_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _COMPONENTS)
)

# One kind per tokenizer group, in match order, valued by its lowercase name.
TokenKind = Enum("TokenKind", [(name, name.lower()) for name, _ in _COMPONENTS], module=__name__)
_KIND_OF_GROUP = {kind.name: kind for kind in TokenKind}


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


def tokenize(raw: str) -> list[Token]:
    """Split raw tweet text into typed tokens.

    Total over any input: every non-whitespace character lands in exactly one
    token (the final single-character catch-all guarantees coverage).
    """
    return [Token(match.group(), _KIND_OF_GROUP[match.lastgroup]) for match in _TOKEN_RE.finditer(raw)]


def normalize(tokens: list[Token]) -> list[Token]:
    """Lowercase surfaces and replace tag-like tokens with reserved surfaces.

    Tokens of a kind in TAG_SURFACES (the target-word placeholder among
    them) map to their fixed tags; everything else (including emoticons) is
    lowercased so no uppercase letter survives. Hashtags pass through
    unchanged apart from case; they are expanded later by segmentation.
    """
    return [Token(_TAG_OF_KIND.get(kind) or surface.lower(), kind) for surface, kind in tokens]


@dataclass(frozen=True)
class Lexicon:
    """Unigram counts backing hashtag segmentation and spell correction.

    Immutable once built: the constructor, which `from_pairs` and `from_file`
    also end in, checks and copies the mapping it is given, and `counts` is a
    read-only view of that copy, so the spelling memo and the letter index it
    carries cannot go stale. Neither takes part in comparison or repr. `total`
    is the sum of the counts. Words are non-empty, lowercase and free of the
    censoring `*`, and counts are non-negative ints (a bool is not an int):
    the first entry that breaks a rule raises ValueError."""

    counts: Mapping[str, int] = field(default_factory=dict)
    total: int = field(init=False)
    _spelled: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = dict(self.counts)
        letters = "".join(counts)  # one test of all words and counts; only a bad mapping is walked, to name its entry
        if ("" in counts or "*" in letters or letters != letters.lower()
                or not set(map(type, counts.values())) <= {int} or min(counts.values(), default=0) < 0):
            for word, count in counts.items():
                if not word or "*" in word or word != word.lower():
                    raise ValueError(f"bad lexicon word: {word!r}")
                if type(count) is not int:
                    raise ValueError(f"count for {word!r} is not an int: {count!r}")
                if count < 0:
                    raise ValueError(f"negative count for {word!r}")
        object.__setattr__(self, "counts", MappingProxyType(counts))
        object.__setattr__(self, "total", sum(counts.values()))

    @classmethod
    def from_pairs(cls, pairs) -> "Lexicon":
        """Sum the counts of repeated words; a bad word, or a count that is
        no non-negative int, raises ValueError naming the first bad pair."""
        counts: dict[str, int] = {}
        for word, count in pairs:
            if type(count) is not int or count < 0:  # a sum could hide it: check the earlier words, then this pair
                cls(counts)
                cls({word: count})
            counts[word] = counts.get(word, 0) + count
        return cls(counts)

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        """Read "word<TAB>count" lines, skipping blank ones; an error is a
        MalformedLine naming the file and its first bad line."""
        try:
            with text_lines(path) as lines:
                return cls.from_pairs(_lexicon_pairs(path, lines))
        except (ValueError, MalformedLine) as exc:
            with text_lines(path) as lines:  # a bad file is read again, a line at a time, to name its first bad line
                for lineno, line in lines:
                    try:
                        cls.from_pairs(_lexicon_pairs(path, [(lineno, line)]))
                    except ValueError as bad:
                        raise MalformedLine(f"{path}:{lineno}: {bad}", lineno) from None
            if isinstance(exc, MalformedLine):  # no line is bad now: the file changed since the failed read
                raise
            raise MalformedLine(f"{path}: {exc}") from exc

    @cached_property
    def _letters(self) -> "_LetterIndex":
        """Letter masks of every word, built by the first distance-2 search."""
        return _LetterIndex.build(self.counts)


def _lexicon_pairs(path, lines):
    """Yield (word, count) of each non-blank one of the numbered `lines`;
    one that is not "word<TAB>count" raises MalformedLine naming `path`
    and the line."""
    for lineno, line in lines:
        if not line:
            continue
        try:
            word, count_text = line.split("\t")
            count = int(count_text)
        except ValueError:
            raise MalformedLine(f"{path}:{lineno}: expected 'word<TAB>count', got {line!r}", lineno) from None
        yield word, count


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


def _edits1(word: str) -> set[str]:
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    deletes = {left + right[1:] for left, right in splits if right}
    transposes = {
        left + right[1] + right[0] + right[2:] for left, right in splits if len(right) > 1
    }
    replaces = {
        left + ch + right[1:] for left, right in splits if right for ch in _SPELL_ALPHABET
    }
    inserts = {left + ch + right for left, right in splits for ch in _SPELL_ALPHABET}
    return deletes | transposes | replaces | inserts


def spell_correct(word: str, lex: Lexicon) -> str:
    """Return the closest lexicon word within edit distance 2, else the input.

    Distance-1 candidates beat distance-2 ones; among candidates at the same
    distance the highest count wins, ties broken lexicographically. An edit
    deletes a character, swaps two adjacent ones, or replaces or inserts a
    letter a-z. Every answer, "unchanged" too, is kept in the lexicon's
    memo and returned again for the same input, until the memo holds
    `_SPELL_MEMO_MAX` answers; later ones are computed each time.
    """
    if word in lex.counts:
        return word
    fixed = lex._spelled.get(word)
    if fixed is None:
        fixed = _closest(word, lex)
        if len(lex._spelled) < _SPELL_MEMO_MAX:
            lex._spelled[word] = fixed
    return fixed


def _closest(word: str, lex: Lexicon) -> str:
    edits = _edits1(word)
    known = [w for w in edits if w in lex.counts]
    if not known:
        known = lex._letters.two_edits(word, edits)
    if not known:
        return word
    return min(known, key=lambda w: (-lex.counts[w], w))


@dataclass(frozen=True)
class _LetterIndex:
    """Per lexicon word a letter mask (`_letter_mask`) and its length
    (capped at 255): 9 bytes a word besides the tuple of words, filtered
    with one vectorised pass."""

    words: tuple[str, ...]
    masks: np.ndarray  # uint64
    lengths: np.ndarray  # uint8

    @classmethod
    def build(cls, counts) -> "_LetterIndex":
        """Compute `_letter_mask` of every word with numpy, `_INDEX_BLOCK`
        words at a time to bound the temporaries."""
        words = tuple(counts)
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
        return cls(words=words, masks=masks, lengths=np.minimum(sizes, 255, out=sizes).astype(np.uint8))

    def two_edits(self, word: str, edits: set[str]) -> list[str]:
        """The lexicon words two edits from `word`, whose one-edit set is
        `edits`.

        One edit changes the length by at most 1 and flips at most 2 mask
        bits (an insert or delete only 1), so a word two edits away differs
        in length by at most 2 and in bits by at most 4 minus that length
        difference. Survivors of that filter, about a hundred in a 30k-word
        lexicon, must also become one string with `word` after at most two
        deletions from each (`_meet_after_two_deletes`, a few integer
        operations per character); those that do are checked exactly
        against `edits`."""
        n = min(len(word), 255)
        shift = np.abs(self.lengths.astype(np.int16) - n)
        flips = np.bitwise_count(self.masks ^ np.uint64(_letter_mask(word)))
        survivors = np.flatnonzero(flips + shift <= 4)
        if survivors.size == 0:
            return []
        positions = _positions(word)
        # the strings of `edits` hold only a-z and the characters of `word`
        letters = _SPELL_ALPHABET + "".join(set(word).difference(_LETTER_BIN))
        out = []
        for i in survivors.tolist():
            w = self.words[i]
            if _meet_after_two_deletes(positions, len(word), w) and not edits.isdisjoint(_sources1(w, letters)):
                out.append(w)
        return out


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


def _sources1(target: str, letters: str) -> set[str]:
    """Every string whose `_edits1` holds `target`, where a character that
    string has in place of or besides those of `target` is one of `letters`:
    undo a delete by inserting, a swap by swapping, a replacement by an a-z
    letter by replacing it, an insert of an a-z letter by deleting it."""
    splits = [(target[:i], target[i:]) for i in range(len(target) + 1)]
    inserts = {left + ch + right for left, right in splits for ch in letters}
    swaps = {left + right[1] + right[0] + right[2:] for left, right in splits if len(right) > 1}
    plain = [(left, right) for left, right in splits if right and right[0] in _LETTER_BIN]
    replaces = {left + ch + right[1:] for left, right in plain for ch in letters}
    deletes = {left + right[1:] for left, right in plain}
    return inserts | swaps | replaces | deletes


def preprocess(raw: str, lex: Lexicon) -> list[str]:
    """Full pipeline: tokenize, normalize, segment hashtags, spell-correct.

    Spell correction only touches purely alphabetic out-of-lexicon surfaces
    of length >= 4 (short slang is left alone), and is skipped entirely when
    the lexicon is empty.
    """
    surfaces = []
    for token in normalize(tokenize(raw)):
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
