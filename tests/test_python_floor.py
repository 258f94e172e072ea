"""Every `latem` module and script keeps to the oldest Python the package declares.

The suite runs on one interpreter, newer than the floor, so syntax and regex
features added after it would pass here and break on the floor. This reads
each module as the floor's parser does, and checks each regex literal it
compiles for the two regex features new in 3.11: possessive quantifiers and
atomic groups. The scripts are held to the same floor: the node agent runs
on the container image's Python, not the host's.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "latem").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
FLOOR = (3, 10)

# The `re` functions that compile their first argument.
_COMPILING = {"compile", "match", "fullmatch", "search", "sub", "subn", "split", "findall",
              "finditer"}
_ESCAPE = re.compile(r"\\.", re.S)
_CLASS = re.compile(r"\[\^?\]?[^\]]*\]")
# Outside escapes and classes: a quantifier followed by `+`, or `(?>`.
_NEWER_SYNTAX = re.compile(r"[*+?}]\+|\(\?>")


def newer_syntax(pattern: str) -> bool:
    """Whether a pattern uses a possessive quantifier or an atomic group."""
    return bool(_NEWER_SYNTAX.search(_CLASS.sub("", _ESCAPE.sub("", pattern))))


def regex_literals(tree: ast.AST) -> list[str]:
    """The patterns a module passes to `re` as literals; an f-string's
    replacement fields read as one plain character."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute) and node.func.attr in _COMPILING
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"):
            continue
        arg = node.args[0]
        text = []
        for part in arg.values if isinstance(arg, ast.JoinedStr) else [arg]:
            if isinstance(part, ast.FormattedValue):
                text.append("x")
            elif isinstance(part, ast.Constant) and isinstance(part.value, (str, bytes)):
                text.append(part.value if isinstance(part.value, str) else part.value.decode())
            else:  # not a literal
                break
        else:
            found.append("".join(text))
    return found


def test_the_floor_is_the_declared_one():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in pyproject


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_regexes_use_no_newer_syntax(path):
    patterns = regex_literals(ast.parse(path.read_text()))
    assert [p for p in patterns if newer_syntax(p)] == []


def test_the_regex_scan_reaches_every_literal():
    patterns = [p for path in MODULES for p in regex_literals(ast.parse(path.read_text()))]
    assert len(patterns) >= 20
    assert r"Command failed \S*:(\d+)" in patterns  # adapters._BATCH_TOOLS["tc"]
    assert r"\nx (\d+)\n" in patterns  # an f-string pattern


@pytest.mark.parametrize(
    "pattern, newer",
    [
        (r"(?:[\w -]++|\\;)*+", True), (r"a?+", True), (r"a{2}+", True), (r"(?>ab)", True),
        (r"\++", False), (r"[*+]+", False), (r"a+?", False), (r"[]+]+", False),
        (r"\\\++", False), (r"(?:a)+", False),
    ],
)
def test_the_scan_tells_newer_syntax_apart(pattern, newer):
    assert newer_syntax(pattern) is newer
