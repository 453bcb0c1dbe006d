"""The enumeration that spelling correction must agree with.

`edits1` builds every string one edit from a word (Norvig-style
candidates): delete a character, swap two adjacent ones, or replace one by
or insert a letter a-z. A string is two edits from `word` when it is in the
`edits1` of some string of `edits1(word)`; `sources1` walks that second
step backwards, from the target, so the two-step test costs two sets of a
few hundred strings instead of the ~160k strings two edits from a
7-letter word. `spell_correct` builds none of these strings. Both are
cached, so the tests that share a word build its sets once.
"""

from functools import lru_cache

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@lru_cache(maxsize=4096)
def edits1(word: str) -> frozenset[str]:
    """Every string one edit from `word`."""
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    deletes = {left + right[1:] for left, right in splits if right}
    transposes = {left + right[1] + right[0] + right[2:] for left, right in splits if len(right) > 1}
    replaces = {left + ch + right[1:] for left, right in splits if right for ch in ALPHABET}
    inserts = {left + ch + right for left, right in splits for ch in ALPHABET}
    return frozenset(deletes | transposes | replaces | inserts)


@lru_cache(maxsize=4096)
def sources1(target: str, letters: str) -> frozenset[str]:
    """Every string whose `edits1` holds `target`, where a character that
    string has in place of or besides those of `target` is one of `letters`:
    undo a delete by inserting, a swap by swapping, a replacement by an a-z
    letter by replacing it, an insert of an a-z letter by deleting it."""
    splits = [(target[:i], target[i:]) for i in range(len(target) + 1)]
    inserts = {left + ch + right for left, right in splits for ch in letters}
    swaps = {left + right[1] + right[0] + right[2:] for left, right in splits if len(right) > 1}
    plain = [(left, right) for left, right in splits if right and right[0] in ALPHABET]
    replaces = {left + ch + right[1:] for left, right in plain for ch in letters}
    deletes = {left + right[1:] for left, right in plain}
    return frozenset(inserts | swaps | replaces | deletes)


def two_steps(word: str, target: str) -> bool:
    """Whether `target` is one edit from some string one edit from `word`.
    The strings of `edits1(word)` hold only a-z and the characters of
    `word`, so those are the letters of the sources that can meet them."""
    letters = ALPHABET + "".join(sorted(set(word).difference(ALPHABET)))
    return not edits1(word).isdisjoint(sources1(target, letters))
