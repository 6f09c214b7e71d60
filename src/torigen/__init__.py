"""torigen: exact toric genus and cobordism invariants of homogeneous spaces.

The two error bases below let the command line pick an exit code without
importing the module that raised the error.
"""

__version__ = "0.1.0"


class SpaceGrammarError(Exception):
    """A space descriptor outside the grammar: exit 2, with the grammar shown."""


class CheckFailure(Exception):
    """Well-formed input whose data fail a check or a bound: exit 1."""
