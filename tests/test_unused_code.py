"""Every function, class, method, option and field of the package has a caller.

Definitions are read with `ast` from `src/fungi`; a definition counts as used
when its name appears in `src/fungi` or `perfbench` outside the definition's
own body: as an identifier, attribute or import for a module-level function
or class, and only as an attribute (`x.name`) for a method. Tests do not
count: code whose only caller is its own test goes. The check matches names,
not objects, so a method that shares its name with an attribute used
elsewhere (`dim`, `save`, `config`) passes without a caller of its own.
Likewise, a defaulted parameter of a public function or method counts as
used when some call of that name in `src/fungi` or `perfbench` sets it, and
a dataclass field when `src/fungi` or `perfbench` reads it as an attribute.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fungi"

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
            if total[node.name] - own[node.name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined but never called outside tests: " + ", ".join(unused)


def _name(node):
    """The name a call target or argument refers to: `f` or `x.f` gives "f"."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def set_options(trees):
    """(function name, parameter keyword or position) pairs that some call
    sets. A call that passes a function on (`run(fn, x, seed=1)`) also sets
    its keywords on that function."""
    out = set()
    for tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                callee = _name(call.func)
                out.update((callee, i) for i in range(len(call.args)))
                for name in {callee} | {_name(a) for a in call.args}:
                    out.update((name, kw.arg) for kw in call.keywords if kw.arg)
    return out


def test_every_option_has_a_caller():
    """A defaulted parameter of a public function or method is set, by
    keyword or by position, by some call in `src/fungi` or `perfbench`."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    calls = set_options(trees.values())
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, is_method in definitions(trees[path]):
            if isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            # a call's positions start after `self` or `cls`
            params = [(a.arg, i - is_method) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            for name, position in params:
                key = f"{node.name}.{name}"
                if not {(node.name, name), (node.name, position)} & calls:
                    unset.append(f"{path.name}:{node.lineno} {key}")
    assert not unset, "options that no caller outside tests sets: " + ", ".join(unset)


# dataclass fields that no `x.field` expression reads, each with its reason
UNREAD_FIELDS = {
    **{
        f"BlockParams.{prefix}_{part}": "read through getattr(blk, prefix + '_w') and '_b' for the source layer"
        for prefix in ("qkv", "proj", "fc1", "fc2")
        for part in ("w", "b")
    },
    "IvfParams.dims_per_block": "set by the benchmark harness; goes when the harness stops passing it",
    "IvfParams.anisotropic_threshold": "set by the benchmark harness; goes when the harness stops passing it",
}


def fields_and_reads():
    """([(path, class, field)] for every annotated field of a dataclass in
    `src/fungi`, and the set of attribute names read in `src/fungi` or
    `perfbench`)."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    fields = [
        (path, node, item.target.id)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in trees[path].body
        if isinstance(node, ast.ClassDef)
        and any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return fields, read


def test_every_field_is_read():
    fields, read = fields_and_reads()
    unread = [
        f"{path.name}:{cls.lineno} {cls.name}.{name}"
        for path, cls, name in fields
        if name not in read and f"{cls.name}.{name}" not in UNREAD_FIELDS
    ]
    assert not unread, "dataclass fields that nothing outside tests reads: " + ", ".join(unread)


def test_unread_field_allowances_are_unread_fields():
    fields, read = fields_and_reads()
    unread = {f"{cls.name}.{name}" for _, cls, name in fields if name not in read}
    assert set(UNREAD_FIELDS) <= unread
