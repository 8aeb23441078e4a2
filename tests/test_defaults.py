"""Every threshold lives in ``trilevel.defaults``, and every one is used."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

from trilevel import cli, defaults

PACKAGE = Path(defaults.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "defaults.py")


def _is_threshold_literal(tokens, i):
    tok, nxt = tokens[i], tokens[i + 1]
    # a number times an ulp, as in 4.0 * np.spacing(t)
    ulps = "".join(t.string for t in tokens[i + 1:i + 6])
    return ((tok.type == tokenize.NUMBER and "e" in tok.string.lower()
             and not tok.string.lower().startswith("0x"))
            or (tok.type == tokenize.NAME and tok.string == "finfo")
            or (tok.string == "**" and nxt.string == "-")
            or (tok.type == tokenize.NUMBER
                and re.match(r"\*(np\.|numpy\.)?spacing\(", ulps)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_threshold_literal_outside_defaults(path):
    # docstrings and comments are STRING and COMMENT tokens, so their
    # numbers do not count
    tokens = list(tokenize.generate_tokens(
        io.StringIO(path.read_text(encoding="utf-8")).readline))
    found = [f"{path.name}:{tokens[i].start[0]}: {tokens[i].line.strip()}"
             for i in range(len(tokens) - 1)
             if _is_threshold_literal(tokens, i)]
    assert not found, "threshold literals belong in defaults.py:\n" + (
        "\n".join(found))


def test_every_settable_tolerance_is_read_by_some_task():
    read = {key for task in cli._TASKS.values() for key in task.tols}
    assert read == set(defaults.DEFAULT_TOLERANCES)


def test_every_constant_in_defaults_is_imported():
    imported = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module == "defaults"):
                imported.update(alias.name for alias in node.names)
    constants = {name for name in vars(defaults) if name.isupper()}
    assert constants - imported == set()
