"""README's error table lists exactly the ``error:<module>:<code>`` pairs
that ``src/`` can raise, read from its source."""

import ast
import re
from pathlib import Path

import condflow

SRC = Path(condflow.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

#: each error class's code when its call names none (errors.py)
_CODES = {"ArgumentError": "argument", "ParseError": "parse",
          "NumericalError": "numerical", "CondflowError": "error"}


def _keyword(call, name):
    return next((k.value for k in call.keywords if k.arg == name), None)


def _called(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def source_pairs():
    """The (module, code) pairs of every error built in ``src/``.

    An error's module is a literal, its file's ``_MOD``, or, for a
    helper such as ``grid._read_csv``, the ``module`` argument that each
    of the helper's call sites passes. Errors that are built and returned
    (``mcmc._forward_failed``) count as raised. The CLI's own
    ``error:<module>:<code>:`` literals (``cli:io``) count too."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py") if p.stem != "errors"}
    mods = {stem: node.value.value for stem, tree in trees.items()
            for node in tree.body if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["_MOD"]}

    def resolve(expr, stem):
        if expr is None:
            return "core"
        if isinstance(expr, ast.Name) and expr.id == "_MOD":
            return mods[stem]
        assert isinstance(expr, ast.Constant), ast.dump(expr)
        return expr.value

    def passed_modules(helper):
        """The module argument of every call of ``helper``."""
        return {resolve(_keyword(call, "module") or call.args[1], stem)
                for stem, tree in trees.items() for call in ast.walk(tree)
                if isinstance(call, ast.Call) and _called(call) == helper}

    pairs = set()
    for stem, tree in trees.items():
        helpers = {id(call): fn.name for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   for call in ast.walk(fn) if isinstance(call, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                hit = re.match(r"error:(\w+):(\w+):", node.value)
                pairs.update([hit.groups()] if hit else [])
            if not (isinstance(node, ast.Call)
                    and _called(node) in _CODES):
                continue
            code = _keyword(node, "code")
            code = _CODES[_called(node)] if code is None else code.value
            module = _keyword(node, "module")
            if isinstance(module, ast.Name) and module.id == "module":
                pairs.update((m, code)
                             for m in passed_modules(helpers[id(node)]))
            else:
                pairs.add((resolve(module, stem), code))
    return pairs


def readme_pairs():
    section = README.read_text(encoding="utf-8").split("### Errors", 1)[1]
    rows = re.findall(r"^\| `error:(\w+):(\w+)` \|", section, flags=re.M)
    assert len(rows) == len(set(rows)), "a pair is listed twice"
    return set(rows)


def test_source_scan_resolves_the_indirect_modules():
    pairs = source_pairs()
    # _read_csv's module comes from its callers, one of them the CLI's
    # theta reader; _forward_failed builds the error that run_study raises
    assert {("cli", "parse"), ("grid", "parse"), ("kriging", "parse"),
            ("mcmc", "parse"), ("diagnostics", "parse"),
            ("mcmc", "forward"), ("cli", "io")} <= pairs
    assert not {m for m, _ in pairs} & {"core", "module"}


def test_readme_error_table_matches_the_source():
    source, readme = source_pairs(), readme_pairs()
    assert sorted(source - readme) == [], "raised but not in README"
    assert sorted(readme - source) == [], "in README but never raised"
