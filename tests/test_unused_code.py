"""Every function, class, method, option, default and field of the package
has a caller in the program.

Definitions are read with `ast` from `src/fungi`; a definition counts as used
when its name appears in `src/fungi` or `perfbench` outside the definition's
own body: as an identifier, attribute or import for a module-level function
or class, and only as an attribute (`x.name`) for a method. Tests do not
count: code whose only caller is its own test goes. A dataclass field counts
as used when `src/fungi` or `perfbench` reads it as an attribute.

Defaults need program callers on both sides. Some call in `src/fungi` or
`perfbench` sets each defaulted parameter of a public function or method,
and some call omits each default of a parameter or dataclass field: a
default that every call overrides is a second copy of a value set elsewhere,
and the reference hyperparameters live in `config.py` alone.

These checks match names, not objects, so a method that shares its name with
an attribute used elsewhere (`dim`, `save`, `config`) passes without a caller
of its own, and so does any dunder method. Their dynamic companion,
`test_every_callable_runs_in_some_command`, runs every command at desk scale
under a profiler and fails on any function or method that none enters,
unless NOT_RUN_BY_COMMANDS gives its reason.
"""

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

from fungi import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fungi"


def parse_sources():
    """Syntax trees of `src/fungi` and `perfbench`, by path."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}

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
    trees = parse_sources()
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


def defaults(tree):
    """(owner, name, position, factory) for every default of a module: the
    defaulted parameters of its public functions and methods (position
    counted after `self` or `cls`; None for keyword-only), and the defaulted
    public fields of its dataclasses (position in field order). `factory` is
    the callee of a `field(default_factory=...)`, else None."""
    for node, is_method in definitions(tree):
        if node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, a in enumerate(positional[first:], start=first):
                yield node, a.arg, i - is_method, None
            for a, d in zip(args.kwonlyargs, args.kw_defaults):
                if d:
                    yield node, a.arg, None, None
        elif any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list):
            items = [i for i in node.body if isinstance(i, ast.AnnAssign) and isinstance(i.target, ast.Name)]
            for position, item in enumerate(items):
                if item.value is not None and not item.target.id.startswith("_"):
                    keywords = item.value.keywords if isinstance(item.value, ast.Call) else []
                    factory = next((_name(k.value) for k in keywords if k.arg == "default_factory"), None)
                    yield node, item.target.id, position, factory


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
    trees = parse_sources()
    calls = set_options(trees.values())
    unset = [
        f"{path.name}:{owner.lineno} {owner.name}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, name, position, _ in defaults(trees[path])
        if isinstance(owner, ast.FunctionDef) and not {(owner.name, name), (owner.name, position)} & calls
    ]
    assert not unset, "options that no caller outside tests sets: " + ", ".join(unset)


def test_every_default_is_relied_on():
    """Some call in `src/fungi` or `perfbench` omits each default of a public
    function, method or dataclass field, so the program runs with it. A call
    with `*` or `**` arguments, or one that only passes the function on
    (`run(fn, x)`), omits nothing; `field(default_factory=X)` counts as a
    call `X()` once its own field's default is relied on."""
    trees = parse_sources()
    calls = {}  # callee name -> [(positional count, keywords)] of the plain calls
    for tree in trees.values():
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call) and all(kw.arg for kw in call.keywords)
                    and not any(isinstance(a, ast.Starred) for a in call.args)):
                calls.setdefault(_name(call.func), []).append((len(call.args), {kw.arg for kw in call.keywords}))

    def omitted(owner, name, position):
        return any(name not in kws and (position is None or position >= n) for n, kws in calls.get(owner.name, ()))

    pending = [(path, *d) for path in sorted(PACKAGE.glob("*.py")) for d in defaults(trees[path])]
    relied = True
    while relied:
        relied = [d for d in pending if omitted(*d[1:4])]
        pending = [d for d in pending if d not in relied]
        for *_, factory in relied:
            if factory:
                calls.setdefault(factory, []).append((0, set()))
    overridden = [f"{path.name}:{owner.lineno} {owner.name}.{name}" for path, owner, name, _, _ in pending]
    assert not overridden, f"{len(overridden)} defaults that every call outside tests overrides: " + ", ".join(overridden)


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
    trees = parse_sources()
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


# a desk-scale run that reaches every branch the commands take: three
# objectives, a negative bank, an IVF index with at least 39 rows per leaf
DESK_CONFIG = """\
[encoder]
image_size = 32
patch_size = 8
dim = 16
heads = 2
mlp_ratio = 2.0

[kl]
proj_dim = 32

[dino]
proj_dim = 32
local_crops = 2

[simclr]
proj_dim = 24
positive_views = 4
view_patch = 16
negative_images = 2

[pca]
out_dim = 4

[segmentation]
augmentation_epochs = 2
ivf_num_leaves = 2
ivf_leaves_to_search = 1
"""
# the few-shot preset (configs/segment_few_shot.cfg) at desk scale: its k,
# temperature and rerank, two augmentation epochs and every leaf searched
FEW_SHOT_DESK_CONFIG = DESK_CONFIG.replace(
    "ivf_leaves_to_search = 1\n", "ivf_leaves_to_search = 2\nk = 90\ntemperature = 0.1\nivf_rerank = 1800\n")

# callables that no command enters, each with its reason
NOT_RUN_BY_COMMANDS = {
    "EncoderParams.checksum": "the benchmark harness's tests compare encoders by it",
    "exact_search": "the benchmark harness measures IVF recall against it",
    "ivf_search": "the benchmark harness measures IVF recall with it",
    "GradTape.__len__": "the benchmark harness's tracer counts tape nodes with it",
    "Tensor.__repr__": "shows a Tensor in a debugger or a failed assertion; no command prints one",
}


def callables(tree):
    """(name, first lines) of the module-level functions and of every method,
    dunders included, of the module-level classes; a decorated function's
    code starts at a decorator."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            items = [(node, node.name)]
        elif isinstance(node, ast.ClassDef):
            items = [(item, f"{node.name}.{item.name}") for item in node.body if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for item, name in items:
            yield name, {item.lineno, *(d.lineno for d in item.decorator_list)}


def command_runs(root):
    """argv of every command at desk scale, in an order whose outputs feed
    the next ones."""
    data = {kind: str(root / kind) for kind in ("blobs", "stripes", "segmentation")}
    config, block0, few_shot = root / "run.cfg", root / "block0.cfg", root / "few_shot.cfg"
    config.write_text(DESK_CONFIG)
    few_shot.write_text(FEW_SHOT_DESK_CONFIG)
    block0.write_text(DESK_CONFIG + "\n[gradients]\nblock_index = 0\n")  # the attention backward
    runs = [
        ["synth", "--kind", kind, "--n", n, "--classes", classes, "--image-size", "32", "--seed", "1", "--out", data[kind]]
        for kind, n, classes in (("blobs", "12", "2"), ("stripes", "12", "2"), ("segmentation", "4", "3"))
    ]
    runs += [
        ["extract", "--config", str(config), "--data", data["blobs"], "--out", str(root / "banks"), "--jobs", "2"],
        ["extract", "--config", str(block0), "--data", data["stripes"], "--out", str(root / "banks0")],
    ]
    banks = ["--train", str(root / "banks" / "bank_train.fngi"), "--test", str(root / "banks" / "bank_test.fngi")]
    runs += [["fuse-pca", *banks, "--out", str(root / "pca")], ["eval", *banks, "--shots", "2", "--out", str(root / "eval.csv")]]
    runs += [[command, *banks, "--out", str(root / f"{command}.csv")] for command in ("cluster", "probe", "retrieve", "cka")]
    segment = ["segment", "--data", data["segmentation"]]
    runs += [
        [*segment, "--config", str(config), "--out", str(root / "segment.csv")],
        [*segment, "--config", str(config), "--fungi", "--out", str(root / "segment_fungi.csv")],
        [*segment, "--config", str(few_shot), "--fungi", "--bank-cap", "20", "--out", str(root / "segment_few.csv")],
    ]
    return runs


def test_every_callable_runs_in_some_command(tmp_path):
    """The dynamic companion of the name checks: every command runs in
    process under a profiler, and each function and method of `src/fungi`
    that no command enters must have its reason in NOT_RUN_BY_COMMANDS."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    runs = command_runs(tmp_path)
    sys.setprofile(profile)
    threading.setprofile(profile)  # `extract --jobs 2` works in a thread pool
    try:
        failed = [argv for argv in runs if cli.main(argv) != 0]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert not failed, f"commands that failed: {failed}"
    entered = {(os.path.realpath(name), line) for name, line in entered}
    never = [
        f"{path.name}:{min(lines)} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, lines in callables(ast.parse(path.read_text(encoding="utf-8")))
        if name not in NOT_RUN_BY_COMMANDS and not any((os.path.realpath(path), line) in entered for line in lines)
    ]
    assert not never, "callables that no command enters: " + ", ".join(never)


def test_not_run_allowances_are_not_run():
    names = {name for path in PACKAGE.glob("*.py") for name, _ in callables(ast.parse(path.read_text(encoding="utf-8")))}
    assert set(NOT_RUN_BY_COMMANDS) <= names
