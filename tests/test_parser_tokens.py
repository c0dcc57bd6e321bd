"""Every gwp1 module stays under 8192 parser tokens.

CPython's parser doubles its token array each time a module's token count passes a power of
two, so crossing one raises the compile peak of a fresh process, and with it its peak RSS.
The parser's count is the `tokenize` stream without comments, blank-line NL tokens and the
encoding marker.
"""

import tokenize
from pathlib import Path

import pytest

import gwp1

MODULES = sorted(Path(gwp1.__file__).parent.glob("*.py"))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path):
    with path.open("rb") as f:
        return sum(tok.type not in SKIPPED for tok in tokenize.tokenize(f.readline))


def test_every_module_is_counted():
    assert {"charlier.py", "invariants.py", "waves.py", "zmodel.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_stays_under_8192_parser_tokens(path):
    assert parser_tokens(path) < 8192, path.name
