"""Tweet-aware tokenization, normalization, hashtag segmentation and spell
correction.

The tokenizer is a single alternation of named regex groups, tried left to
right at each position. Order matters: the target-word placeholder must win
over everything, URLs must win over emoticons (``http://`` contains ``:/``),
dates must win over phone numbers, and the single-character catch-all must
come last so that no non-whitespace character is ever dropped.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

from .errors import MalformedLine

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
_SPELL_MIN_LEN = 4  # pipeline-level gate; spell_correct itself is unrestricted
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


@dataclass
class Lexicon:
    """Unigram counts backing hashtag segmentation and spell correction."""

    counts: dict[str, int] = field(default_factory=dict)
    total: int = 0

    @classmethod
    def from_pairs(cls, pairs) -> "Lexicon":
        """Sum the counts of repeated words; a bad word or a negative count
        raises ValueError."""
        counts: dict[str, int] = {}
        for word, count in pairs:
            _add_count(counts, word, count)
        return cls(counts=counts, total=sum(counts.values()))

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        """Read "word<TAB>count" lines, skipping blank ones; an error is a
        MalformedLine naming the file and line."""
        counts: dict[str, int] = {}
        with open(path, encoding="utf-8") as handle:
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
        return cls(counts=counts, total=sum(counts.values()))

    def word_logp(self, word: str) -> float:
        """Unigram log-probability; out-of-lexicon words pay a length penalty."""
        count = self.counts.get(word, 0)
        if count > 0:
            return math.log(count / self.total)
        return math.log(1.0 / max(self.total, 1)) - _OOV_LEN_PENALTY * len(word)


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
    distance the highest count wins, ties broken lexicographically.
    """
    if word in lex.counts:
        return word
    edits = _edits1(word)
    known = [w for w in edits if w in lex.counts]
    if not known:
        known = [w2 for w1 in edits for w2 in _edits1(w1) if w2 in lex.counts]
    if not known:
        return word
    return min(set(known), key=lambda w: (-lex.counts[w], w))


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
