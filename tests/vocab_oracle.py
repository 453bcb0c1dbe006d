"""The vocabulary reader that `Vocabulary.load` must agree with.

`load_lines` reads an "id<TAB>word" file a line at a time, the way the
loader did before it parsed blocks of lines with str calls, with one tab a
line and an id that is an optional `-` and ASCII digits: every result and
every error of the block parse is checked against it, line numbers
included.
"""

import re

from emocaps.embeddings import RESERVED
from emocaps.errors import MalformedHeader, MalformedLine, text_lines


def load_lines(path) -> tuple[list[str], dict[str, int]]:
    """`id_to_word` and `word_to_id` of vocabulary file `path`, or the
    error of its first bad line."""
    id_to_word = []
    word_to_id = {}
    lineno = 0
    with text_lines(path) as lines:
        for lineno, line in lines:
            if not line:
                continue
            try:
                idx_text, word = line.split("\t")
                if not re.fullmatch("-?[0-9]+", idx_text):
                    raise ValueError(idx_text)
                idx = int(idx_text)
            except ValueError:
                raise MalformedLine(f"{path}:{lineno}: expected id<TAB>word, got {line!r}") from None
            if idx != len(id_to_word):
                raise MalformedHeader(f"{path}:{lineno}: non-contiguous vocabulary id: {line!r}")
            if idx < 2 and word != RESERVED[idx]:
                raise MalformedHeader(f"{path}:{lineno}: id {idx} must be {RESERVED[idx]!r}, got {word!r}")
            if word_to_id.setdefault(word, idx) != idx:
                raise MalformedLine(f"{path}:{lineno}: word {word!r} repeats id {word_to_id[word]}")
            id_to_word.append(word)
    if len(id_to_word) < 2:
        raise MalformedHeader(f"{path}:{lineno + 1}: file ends before id {len(id_to_word)}, {RESERVED[len(id_to_word)]!r}")
    return id_to_word, word_to_id
