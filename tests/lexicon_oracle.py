"""The lexicon reader that `Lexicon.from_file` must agree with.

`from_file` reads a "word<TAB>count" file a line at a time, the way the
loader did before it parsed blocks of lines, with a count that is an
optional `-` and ASCII digits: every result and every error of the block
parse is checked against it, line numbers included.
"""

import re

from emocaps.errors import EmocapsError, text_lines
from emocaps.textprep import Lexicon


def from_file(path) -> dict[str, int]:
    """The summed counts of lexicon file `path`, or the error of its first
    bad line: each line is checked before it is summed."""
    counts = {}
    with text_lines(path) as lines:
        for lineno, line in lines:
            if not line:
                continue
            try:
                word, count_text = line.split("\t")
                if not re.fullmatch("-?[0-9]+", count_text):
                    raise ValueError(count_text)
                count = int(count_text)
            except ValueError:
                raise EmocapsError(f"{path}:{lineno}: expected 'word<TAB>count', got {line!r}") from None
            try:
                Lexicon({word: count})
            except ValueError as bad:
                raise EmocapsError(f"{path}:{lineno}: {bad}") from None
            counts[word] = counts.get(word, 0) + count
    return counts
