"""Every function, class and method of the package has a caller.

Definitions are read with `ast` from `src/fungi`; a definition counts as used
when its name appears in `src/fungi` or `perfbench` outside the definition's
own body: as an identifier, attribute or import for a module-level function
or class, and only as an attribute (`x.name`) for a method. Tests do not
count: code whose only caller is its own test goes. The check matches names,
not objects, so a method that shares its name with an attribute used
elsewhere (`dim`, `save`, `config`) passes without a caller of its own.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fungi"

# names kept although only tests call them, each with its reason
ALLOWED = {
    "finite_diff_gradient": "the central-difference oracle that gradient tests check the tape against",
    "max_relative_error": "the error measure of that oracle's comparisons",
    "replace_source_layer": "how that oracle perturbs the source layer's W and b in the encoder parameters",
    "entry_variance": "the scale of the projection-distance oracle",
}


def references(tree):
    """Counters of the names a syntax tree refers to: (all, attributes only)."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names + attributes, attributes


def definitions(tree):
    """(node, is_method) for module-level functions and classes and the
    non-dunder methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item, True


def test_every_definition_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used, used_as_attribute = Counter(), Counter()
    for tree in trees.values():
        names, attributes = references(tree)
        used.update(names)
        used_as_attribute.update(attributes)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, is_method in definitions(trees[path]):
            total, own = (used_as_attribute, references(node)[1]) if is_method else (used, references(node)[0])
            if total[node.name] - own[node.name] <= 0 and node.name not in ALLOWED:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined but never called outside tests: " + ", ".join(unused)


def test_allowed_names_are_defined():
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node, _ in definitions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(ALLOWED) <= defined
