"""Count the code lines of each module of src/torigen.

A code line holds a token of code: blank lines, comments and docstrings
(a string that is a statement of its own) do not count. Standard library
only.

    python tools/loc.py [DIR]

prints one line per module, "lines  file name", then the total; DIR defaults
to src/torigen beside this script.
"""

import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source):
    """The number of lines of source that hold code."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for prev, tok, nxt in zip([None] + tokens, tokens, tokens[1:] + [None]):
        docstring = (tok.type == tokenize.STRING and (prev is None or prev.type in SKIP)
                     and (nxt is None or nxt.type == tokenize.NEWLINE))
        if tok.type not in SKIP and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "torigen"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print("%5d  %s" % (count, path.name))
    print("%5d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
