"""The package's layering, read off its source with ``ast``: rational
functions (``RatFunc``, ``MatRF``) are named only inside ``exactalg`` and
the package's re-export, and polynomials are divided by one algorithm, in
Z[x], so no ``poly_divmod`` is defined. The classical families are named
only where they are defined, parsed and instantiated: every other module
reads a family through its Pearson pair and ends. String literals do not
count. No module but ``__init__.py``, which re-exports, imports a name it
does not use.
Every module stays below the token count at which CPython's parser grows its
token array, and the suite tests this checkout's package."""

import ast
import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mvop"
MODULES = sorted(SRC.glob("*.py"))


def _names(tree):
    """Every identifier the module uses or defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from filter(None, (node.name, node.asname))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg


def test_modules_found():
    assert {"exactalg.py", "diffop.py", "weights.py", "dsl.py", "dwalgebra.py"} <= {p.name for p in MODULES}


def test_checkout_is_tested():
    # conftest puts the checkout's src first, so the suite never tests
    # another importable mvop
    import mvop

    assert Path(mvop.__file__).resolve().parent == SRC


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_rational_functions_stay_in_exactalg(path):
    if path.name in ("exactalg.py", "__init__.py"):
        return
    assert not {"RatFunc", "MatRF"} & set(_names(ast.parse(path.read_text()))), path.name


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_families_read_through_pearson_pair_and_ends(path):
    # weights defines them, dsl parses them, catalog builds LAG3's Laguerre
    # sequences and __init__ re-exports them
    if path.name in ("weights.py", "dsl.py", "catalog.py", "__init__.py"):
        return
    assert not {"HermiteShifted", "Laguerre", "Jacobi"} & set(_names(ast.parse(path.read_text()))), path.name


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_field_division(path):
    defined = {n.name for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert "poly_divmod" not in defined, path.name


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    # __init__.py imports to re-export
    if path.name == "__init__.py":
        return
    tree = ast.parse(path.read_text())
    imported = {
        (a.asname or a.name).split(".")[0]
        for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom)) and not (isinstance(n, ast.ImportFrom) and n.module == "__future__")
        for a in n.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not imported - used, (path.name, sorted(imported - used))


# CPython 3.11's parser doubles its token array when a module reaches 8,192
# tokens, which adds about 0.5 MB to the compile peak; the benchmark keeps no
# bytecode cache, so that shows in its peak_rss_mb. A change that has to cross
# the line raises it here and states the measured cost.
PARSER_TOKEN_LINE = 8192


def parser_tokens(text: str) -> int:
    """The module's tokens as ``tokenize`` gives them, comments and
    non-logical newlines excluded."""
    return sum(1 for t in tokenize.generate_tokens(io.StringIO(text).readline)
               if t.type not in (tokenize.COMMENT, tokenize.NL))


def test_parser_tokens_counted():
    assert parser_tokens("x = 1  # one\n\n") == 5  # x, =, 1, NEWLINE, ENDMARKER


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_below_parser_token_line(path):
    assert parser_tokens(path.read_text()) < PARSER_TOKEN_LINE, path.name
