"""Source layout: no dead names in the package.

Every public top-level function or class of `src/looptop` has a caller
in another module of the package or in a test, and no module imports a
name it does not use.  `__init__.py` re-exports names, so it is neither
checked for unused imports nor counted as a caller.  The per-model
cache table in CONVENTIONS.md lists exactly the cache keys the package
uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "looptop"

# Imported unused on purpose: bench/tracing.py SITES wraps these names
# under `duality` and its restore test reads them back there.
UNUSED_IMPORTS = {
    ("duality", "words_by_degree"): "wrapped by bench/tracing.py SITES",
    ("duality", "assemble_complex"): "wrapped by bench/tracing.py SITES",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _modules():
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))
            if p.stem != "__init__"}


def _names_used(tree):
    """Every name a tree reads, as a bare name, an attribute or an
    imported name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_definition_has_a_caller():
    """A public function is used by another module or by a test.  A
    public class may instead be used in its own module outside its body:
    BarSlice, LoopHomology, SubquotientBasis and the like are the result
    types of that module's functions."""
    modules = _modules()
    names = {m: _names_used(t) for m, t in modules.items()}
    tests = set().union(*(_names_used(_parse(p))
                          for p in sorted(ROOT.glob("tests/*.py"))))
    dead = []
    for name, tree in modules.items():
        used = tests.union(*(n for m, n in names.items() if m != name))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                own = set().union(*(_names_used(other) for other in tree.body
                                    if other is not node))
            elif isinstance(node, ast.FunctionDef):
                own = set()
            else:
                continue
            if not node.name.startswith("_") and node.name not in used | own:
                dead.append(f"{name}.{node.name}")
    assert not dead, dead


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if (bound not in loaded
                        and (name, bound) not in UNUSED_IMPORTS):
                    unused.append(f"{name}: {bound}")
    assert not unused, unused


def _cache_keys(tree):
    """The keys a tree reads or writes on some `x._cache`: subscripted,
    read with .get, set with .setdefault or tested with `in`.  A key that
    is not a string literal shows as its source text."""
    def is_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    def key(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return ast.unparse(node)

    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_cache(node.value):
            keys.add(key(node.slice))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("get", "setdefault")
              and is_cache(node.func.value)):
            keys.add(key(node.args[0]))
        elif (isinstance(node, ast.Compare)
              and isinstance(node.ops[0], (ast.In, ast.NotIn))
              and is_cache(node.comparators[0])):
            keys.add(key(node.left))
    return keys


def test_cache_table_lists_every_cache_key():
    """The per-model cache table in CONVENTIONS.md names exactly the
    `A._cache` keys the package uses."""
    used = set().union(*(_cache_keys(t) for t in _modules().values()))
    text = (ROOT / "CONVENTIONS.md").read_text()
    table = text[text.index("| key | keyed by | holds |"):].split("\n\n")[0]
    documented = {line.split("`")[1] for line in table.splitlines()[2:]}
    assert used == documented
