"""Tweet-aware tokenization, normalization, hashtag segmentation and spell
correction.

The tokenizer is a single alternation of named regex groups, tried left to
right at each position. Order matters: the target-word placeholder must win
over everything, URLs must win over emoticons (``http://`` contains ``:/``),
dates must win over phone numbers, and the single-character catch-all must
come last so that no non-whitespace character is ever dropped.

Spell correction gives the answer of enumerating every string one and two
edits away (Norvig-style candidates) without building the two-edit strings.
Distance 1 does enumerate, which is cheap. Distance 2 filters the whole
lexicon at once by length and by a packed letter mask, then checks the few
survivors exactly. The masks are built on the first distance-2 search, not
when the lexicon is read, and take 9 bytes a word; a deletion index such as
SymSpell's would take far more memory. Each answer is memoised on the
immutable `Lexicon`, per input surface, up to `_SPELL_MEMO_MAX` surfaces.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property
from importlib import resources
from types import MappingProxyType

import numpy as np

from .errors import MalformedLine, reading_utf8

TARGETWORD_PLACEHOLDER = "[#TARGETWORD#]"

# Reserved surfaces produced by normalize(). Hashtags are segmented into
# plain words instead of being tagged, so they are absent here.
TAG_SURFACES = {
    "URL": "<url>",
    "USER": "<user>",
    "EMAIL": "<email>",
    "PHONE": "<phone>",
    "DATE": "<date>",
    "TIME": "<time>",
    "MONEY": "<money>",
    "TARGETWORD": "<targetword>",
}

_SPELL_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_LETTER_BIN = {ch: i for i, ch in enumerate(_SPELL_ALPHABET)}
_SPELL_MIN_LEN = 4  # pipeline-level gate; spell_correct itself is unrestricted
_SPELL_MEMO_MAX = 100_000  # answers memoised per Lexicon, about 10 MB at most
_OOV_LEN_PENALTY = 3.0  # per-character log-prob penalty for out-of-lexicon words


class TokenKind(Enum):
    WORD = "word"
    URL = "url"
    USER = "user"
    EMAIL = "email"
    PHONE = "phone"
    DATE = "date"
    TIME = "time"
    MONEY = "money"
    HASHTAG = "hashtag"
    EMOTICON = "emoticon"
    ACRONYM = "acronym"
    CENSORED = "censored"
    EMPHASIS = "emphasis"
    NUMBER = "number"
    PUNCT = "punct"
    TARGETWORD = "targetword"


@dataclass(frozen=True)
class Token:
    surface: str
    kind: TokenKind


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


def tokenize(raw: str) -> list[Token]:
    """Split raw tweet text into typed tokens.

    Total over any input: every non-whitespace character lands in exactly one
    token (the final single-character catch-all guarantees coverage).
    """
    tokens = []
    for match in _TOKEN_RE.finditer(raw):
        tokens.append(Token(match.group(), TokenKind[match.lastgroup]))
    return tokens


def normalize(tokens: list[Token]) -> list[Token]:
    """Lowercase surfaces and replace tag-like tokens with reserved surfaces.

    URL/USER/EMAIL/PHONE/DATE/TIME/MONEY and the target-word placeholder map
    to their fixed tags; everything else (including emoticons) is lowercased
    so no uppercase letter survives. Hashtags pass through unchanged apart
    from case; they are expanded later by segmentation.
    """
    out = []
    for token in tokens:
        tag = TAG_SURFACES.get(token.kind.name)
        if tag is not None:
            out.append(Token(tag, token.kind))
        else:
            out.append(Token(token.surface.lower(), token.kind))
    return out


@dataclass(frozen=True)
class Lexicon:
    """Unigram counts backing hashtag segmentation and spell correction.

    Immutable once built: `counts` is a read-only view of a dict no one
    else holds (a copy of the mapping given, or the dict `from_pairs` or
    `from_file` built), so the spelling memo and the letter index it
    carries cannot go stale. Neither takes part in comparison or repr.
    `total` is the sum of the counts."""

    counts: Mapping[str, int] = field(default_factory=dict)
    total: int = field(init=False)
    _spelled: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)
    _handed_over: InitVar[bool] = False  # `counts` is a dict no one else holds

    def __post_init__(self, _handed_over):
        counts = self.counts if _handed_over else dict(self.counts)
        object.__setattr__(self, "counts", MappingProxyType(counts))
        object.__setattr__(self, "total", sum(counts.values()))

    @classmethod
    def from_pairs(cls, pairs) -> "Lexicon":
        """Sum the counts of repeated words; a bad word or a negative count
        raises ValueError."""
        counts: dict[str, int] = {}
        for word, count in pairs:
            _add_count(counts, word, count)
        return cls(counts=counts, _handed_over=True)

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        """Read "word<TAB>count" lines, skipping blank ones; an error is a
        MalformedLine naming the file and line."""
        counts: dict[str, int] = {}
        with open(path, encoding="utf-8") as handle, reading_utf8(path):
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    word, count_text = line.split("\t")
                    count = int(count_text)
                except ValueError:
                    raise MalformedLine(
                        f"{path}:{lineno}: expected 'word<TAB>count', got {line!r}", lineno
                    ) from None
                try:
                    _add_count(counts, word, count)
                except ValueError as exc:
                    raise MalformedLine(f"{path}:{lineno}: {exc}", lineno) from None
        return cls(counts=counts, _handed_over=True)

    def word_logp(self, word: str) -> float:
        """Unigram log-probability; out-of-lexicon words pay a length penalty."""
        count = self.counts.get(word, 0)
        if count > 0:
            return math.log(count / self.total)
        return math.log(1.0 / max(self.total, 1)) - _OOV_LEN_PENALTY * len(word)

    @cached_property
    def _letters(self) -> "_LetterIndex":
        """Letter masks of every word, built by the first distance-2 search."""
        return _LetterIndex.build(self.counts)


def _add_count(counts: dict[str, int], word: str, count: int) -> None:
    """Add one lexicon entry. Words are non-empty, lowercase and free of the
    censoring `*`; counts are non-negative."""
    if not word or "*" in word or word != word.lower():
        raise ValueError(f"bad lexicon word: {word!r}")
    if count < 0:
        raise ValueError(f"negative count for {word!r}")
    counts[word] = counts.get(word, 0) + int(count)


def segment_hashtag(tag: str, lex: Lexicon) -> list[str]:
    """Split a hashtag body into its best word sequence under the unigram model.

    Maximizes the summed word log-probability; exact ties prefer fewer words,
    then the lexicographically smallest word tuple, so the result is fully
    deterministic. A body with no viable split comes back as a single word.
    """
    body = tag.lstrip("#").lower()
    if not body:
        return [tag]
    n = len(body)
    # best[i] covers body[i:]; key = (negated score, word count, words)
    best = [None] * (n + 1)
    best[n] = (0.0, 0, ())
    for i in range(n - 1, -1, -1):
        winner = None
        for j in range(i + 1, n + 1):
            word = body[i:j]
            tail = best[j]
            candidate = (
                tail[0] - lex.word_logp(word),
                tail[1] + 1,
                (word,) + tail[2],
            )
            if winner is None or candidate < winner:
                winner = candidate
        best[i] = winner
    return list(best[0][2])


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
        words = tuple(counts)
        return cls(
            words=words,
            masks=np.fromiter(map(_letter_mask, words), dtype=np.uint64, count=len(words)),
            lengths=np.fromiter((min(len(w), 255) for w in words), dtype=np.uint8, count=len(words)),
        )

    def two_edits(self, word: str, edits: set[str]) -> list[str]:
        """The lexicon words two edits from `word`, whose one-edit set is
        `edits`.

        One edit changes the length by at most 1 and flips at most 2 mask
        bits (an insert or delete only 1), so a word two edits away differs
        in length by at most 2 and in bits by at most 4 minus that length
        difference. Survivors of that filter must also share a string with
        `word` after at most two deletions from each; the rest are checked
        exactly against `edits`."""
        n = min(len(word), 255)
        shift = np.abs(self.lengths.astype(np.int16) - n)
        flips = np.bitwise_count(self.masks ^ np.uint64(_letter_mask(word)))
        survivors = np.flatnonzero(flips + shift <= 4)
        if survivors.size == 0:
            return []
        shared = _deletes2(word)
        # the strings of `edits` hold only a-z and the characters of `word`
        letters = _SPELL_ALPHABET + "".join(set(word).difference(_LETTER_BIN))
        out = []
        for i in survivors.tolist():
            w = self.words[i]
            if not shared.isdisjoint(_deletes2(w)) and not edits.isdisjoint(_sources1(w, letters)):
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


def _deletes2(word: str) -> set[str]:
    """`word` and every string made from it by one or two deletions."""
    one = {word[:i] + word[i + 1 :] for i in range(len(word))}
    return {word} | one | {w[:i] + w[i + 1 :] for w in one for i in range(len(w))}


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
