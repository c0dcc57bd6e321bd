"""Every gwp1 module stays under 4096 parser tokens, and so under 8192, and the numeric
layer stays within its line budget.

CPython's parser doubles its token array each time a module's token count passes a power of
two, so crossing one raises the compile peak of a fresh process, and with it its peak RSS.
The parser's count is the `tokenize` stream without comments, blank-line NL tokens and the
encoding marker.  The 4096 step, measured with tracemalloc on truncations of the 883-line
charlier.py that held all the numerics before `special` was split from it (CPython 3.11):
a 1.22 MiB compile peak at 3603 tokens, 1.61 MiB at 4193, and 2.35 MiB for the whole file
at 6802.

The numeric layer is `special.py` and `charlier.py`: 912 lines together when `special` was
split out, and any change to it deletes at least as many of their lines as it adds.
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
    assert {"charlier.py", "hurwitz.py", "invariants.py", "special.py", "waves.py",
            "zmodel.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_stays_under_8192_parser_tokens(path):
    assert parser_tokens(path) < 8192, path.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_stays_under_4096_parser_tokens(path):
    assert parser_tokens(path) < 4096, path.name


def test_numeric_layer_stays_within_its_line_budget():
    package = Path(gwp1.__file__).parent
    lines = sum(len((package / name).read_text().splitlines())
                for name in ("special.py", "charlier.py"))
    assert lines <= 908, lines
