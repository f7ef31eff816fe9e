"""A stdlib lint over src/advm: no unused imports, no unreferenced private
functions, and third-party imports that match the declared dependencies.

The first two are what cutting lines leaves behind: an import whose last
use went, and a module-level `_helper` whose last caller went.
`__init__.py` is not linted for them, because its imports are the
package's exports, but what it reads still counts as a reference. The
third keeps a dependency from coming back, or going stale, unnoticed.
Every public function, class or method is read (as a name, attribute or
import, not a string) somewhere in src/ or perfbench/, or is exported in
advm.__all__, or is a click command, so an API that only tests call
cannot linger in the package; the replicate-study harness that the
acceptance tests call is the one listed exception.
Every parse_manifest call passes a module-level field table by name, so
a manifest's fields are written down once, where its writer can share
them, and only fileio.py calls json.load or json.loads, so every JSON
document and model header goes through the checked reader. Only
evaluate.py spells the attack-set format name or binds its field table,
so the format has one writer and one reader.
Only attacks.py names ProcessPoolExecutor, multiprocessing or os.fork, so
the one process pool, and how it forks and dies, stays in one module.
No einsum call passes optimize= (or a ** mapping that could), since a
BLAS contraction would reorder the sums that train_sgd keeps in order.
No module calls np.argmax, np.argmin, np.all or np.any, or imports them
from numpy, since the ndarray methods run the same C routines without the
Python-level dispatch, which costs more than the reduction on a logit vector.
No class subclasses dict, list, tuple or set, since a result that rides
extra attributes on a container drops them through dict(x) or x.copy().
No module takes an underscore name from another advm module, apart from
the few shared helpers listed here, so a private helper that gains a
caller in a second module is made public or moved on purpose.
Every AdvmError subclass in errors.py is raised somewhere in the package,
so an error class cannot outlive its last raiser, and LabelOutOfRange is
raised only inside data.check_label, so the label rule cannot fork again.
Only evaluate's builder crafts and scores: attack_batch is read there and
in `advm attack`, fooled there and in attack_success_rate (which only
`advm eval` calls), and the builder only by the three table functions, so
a table cannot grow a crafting loop of its own again.
EnsembleOracle's logits, predict and loss_and_grad are Model's own
function objects, so the ensemble cannot grow a second loss and gradient
path again.
experiment.py reads train_sgd and generate_synthetic only in _desk_world,
so every desk world keeps the one recipe: one dataset, per-class windows
of it, one smallcnn per zoo row.
Every call into np.random in src/ (Generator, Philox, SeedSequence,
default_rng, a module-level draw) is inside sampling.derive_rng, and no
module imports numpy.random, so every random stream is
derive_rng(seed, index) and a second stream constructor cannot come back;
an annotation such as np.random.Generator is no call.
In src/, dim_resize_low and dim_pad_to are read only in TransformConfig's
__post_init__ and dim_sides, PAD_RATIO only in dim_sides, and _tim_kernel
only in _tim_matrices, so the dim sides are resolved in one place and the
tim kernel is built only from a checked config.
Every int, float or optional int field of AttackConfig, SamplingSpec,
TransformConfig and ModelSpec, and ModelSpec's input_shape and hidden, is
read inside a _require_* call of its class's __post_init__, and so is
LabeledDataset's class_count. Every int or float parameter of a public
module-level function is read inside a _require_* call, or is passed on
unchanged to a parameter or field that is, apart from three listed
exceptions. So a new setting or argument cannot miss the one number rule
in sampling.py. cli.py builds a click.IntRange in two places only, the
shared count type and train --seed's, so every count flag keeps the rule's
2**31 bound.
The last checks keep README's Python examples importing only what the
package exports, every call README names in backticked prose an
attribute of the package or one of its modules, and every `advm` line of
README's shell examples a command of the CLI with options of that
command, so a removed name, command or option cannot stay documented.
"""

import ast
import functools
import importlib
import pathlib
import pkgutil
import re
import sys

import pytest

import advm
from advm import cli
from advm.models import EnsembleOracle, Model
from advm.sampling import SIZE_LIMIT

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "advm"
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(SRC.glob("*.py"))}
LINTED = {name: tree for name, tree in TREES.items() if name != "__init__.py"}


def _referenced(tree) -> set:
    """Every name the tree reads: bare names, attribute names and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def unused_imports(tree) -> list:
    """Names bound by an import statement and never read as a name in the module."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    found.append((node.lineno, bound))
    return found


def unreferenced_private_functions(tree, referenced: set) -> list:
    """Module-level `_name` functions that no module reads."""
    return [(node.lineno, node.name) for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__") and node.name not in referenced]


def third_party_imports(tree) -> set:
    """Top-level names of the absolute imports that are not in the stdlib."""
    tops = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    return tops - set(sys.stdlib_module_names)


def test_no_unused_imports():
    found = [f"{name}:{line} {bound}" for name, tree in LINTED.items()
             for line, bound in unused_imports(tree)]
    assert not found, "unused imports: " + ", ".join(found)


def test_no_unreferenced_private_functions():
    referenced = set().union(*(_referenced(t) for t in TREES.values()))
    found = [f"{name}:{line} {fn}" for name, tree in LINTED.items()
             for line, fn in unreferenced_private_functions(tree, referenced)]
    assert not found, "unreferenced private functions: " + ", ".join(found)


def test_lint_flags_both_kinds_of_leftover():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom .x import a, b\n"
        "def _dead():\n    return a\n"
        "def _live():\n    return np.sign(1)\n"
        "def public():\n    return _live()\n"
    )
    assert unused_imports(tree) == [(1, "os"), (3, "b")]
    assert unreferenced_private_functions(tree, _referenced(tree)) == [(4, "_dead")]


PERFBENCH_TREES = [ast.parse(p.read_text(encoding="utf-8"), str(p))
                   for p in sorted((ROOT / "perfbench").glob("*.py"))]

# Public names read only from tests/: the harness API the acceptance criteria call.
_UNREAD_PUBLIC = {"experiment.mean_transfer", "experiment.white_box_rate"}


def _click_command(node) -> bool:
    """Whether a def carries a `@x.command(...)` or `@x.group(...)` decorator."""
    return any(isinstance(t, ast.Attribute) and t.attr in ("command", "group")
               for t in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list))


def unread_public_names(trees, readers, exported) -> list:
    """`module.name` and `module.Class.method` of each public function, class or
    method in trees (by file name) that no reader tree reads as a name, attribute
    or import, that is not in exported, and that is not a click command."""
    read = set(exported).union(*(_referenced(t) for t in readers))
    found = []
    for file, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if node.name not in read and not _click_command(node):
                found.append(f"{file[:-3]}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{file[:-3]}.{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and m.name[0] != "_"
                          and m.name not in read]
    return found


def test_every_public_name_has_a_reader():
    found = set(unread_public_names(TREES, [*TREES.values(), *PERFBENCH_TREES], advm.__all__))
    assert not found - _UNREAD_PUBLIC, "public names nothing in src/ or perfbench/ reads: " + (
        ", ".join(sorted(found - _UNREAD_PUBLIC)))
    assert found >= _UNREAD_PUBLIC, "allowlisted names that now have a reader: " + (
        ", ".join(sorted(_UNREAD_PUBLIC - found)))


def test_unread_public_name_check_flags_planted_definitions():
    tree = ast.parse(
        "def used():\n    pass\n"
        "def dead():\n    return used(), 'ghost', Box.read\n"
        "def exported():\n    pass\n"
        "@main.command()\ndef cmd():\n    pass\n"
        "@click.group\ndef grp():\n    pass\n"
        "class Box:\n"
        "    def read(self):\n        pass\n"
        "    def elsewhere(self):\n        pass\n"
        "    def unread(self):\n        pass\n"
        "    def _own(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "class Ghost:\n    def method(self):\n        pass\n"
        "def _helper():\n    pass\n"
    )
    other = ast.parse("from .m import Ghost as G\nx.elsewhere()\n")
    assert unread_public_names({"m.py": tree}, [tree, other], {"exported"}) == [
        "m.dead", "m.Box.unread", "m.Ghost.method"]
    assert unread_public_names({"m.py": tree}, [tree], ()) == [
        "m.dead", "m.exported", "m.Box.elsewhere", "m.Box.unread", "m.Ghost", "m.Ghost.method"]


def test_ensemble_runs_the_models_own_loss_and_gradient_path():
    # EnsembleOracle keeps only the fusion primitives; a second copy of these
    # would let the ensemble's loss and gradient drift from Model's
    for attr in ("predict", "loss_and_grad"):
        assert EnsembleOracle.__dict__[attr] is Model.__dict__[attr], attr


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in project["dependencies"]}
    imported = set().union(*(third_party_imports(t) for t in TREES.values()))
    assert imported == declared


def test_third_party_imports_skip_stdlib_and_relative_imports():
    tree = ast.parse("import os.path\nimport numpy as np\nfrom scipy.signal import x\n"
                     "from . import errors\nfrom .tensor import y\nimport json, click\n")
    assert third_party_imports(tree) == {"numpy", "scipy", "click"}


# The checked manifest readers, each with the position of its field table;
# read_manifest stays listed, so a whole-file reader added back keeps the rule.
_MANIFEST_READERS = {"read_manifest": 3, "parse_manifest": 4}


def _manifest_reader(node):
    """The name of the manifest reader a Call node calls, or None."""
    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return name if name in _MANIFEST_READERS else None


def unnamed_manifest_tables(tree) -> list:
    """(line, table source) of each read_manifest or parse_manifest call whose
    field table is not a name the module binds at its top level."""
    module_names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                module_names.update(e.id for e in elts if isinstance(e, ast.Name))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _manifest_reader(node)):
            continue
        at = _MANIFEST_READERS[_manifest_reader(node)]
        table = node.args[at] if len(node.args) > at else next(
            (k.value for k in node.keywords if k.arg == "fields"), None)
        if not (isinstance(table, ast.Name) and table.id in module_names):
            found.append((node.lineno, table and ast.unparse(table)))
    return found


def test_read_manifest_calls_pass_a_module_level_table():
    callers = {(name, _manifest_reader(node)) for name, tree in LINTED.items()
               for node in ast.walk(tree) if isinstance(node, ast.Call) and _manifest_reader(node)}
    assert {("evaluate.py", "parse_manifest"), ("models.py", "parse_manifest")} <= callers, \
        "the attack-set and model readers no longer call the checked reader"
    # fileio.py defines parse_manifest, which takes its table as a parameter
    found = [f"{name}:{line} {table}" for name, tree in LINTED.items() if name != "fileio.py"
             for line, table in unnamed_manifest_tables(tree)]
    assert not found, "manifest tables that are not module-level names: " + ", ".join(found)


def test_manifest_table_check_flags_inline_and_local_tables():
    tree = ast.parse(
        "_TABLE = {'a': int}\n_FMT, _VER = 'x', 1\n"
        "def f(p):\n    local = {'b': str}\n"
        "    read_manifest(p, _FMT, _VER, _TABLE)\n"
        "    read_manifest(p, 'x', 1, {'a': int})\n"
        "    fileio.read_manifest(p, 'x', 1, fields=local)\n"
        "    read_manifest(p, 'x', 1, fields=_TABLE)\n"
        "    read_manifest(p, 'x', 1)\n"
        "    parse_manifest(b, p, _FMT, _VER, _TABLE)\n"
        "    parse_manifest(b, p, 'x', 1, local)\n"
        "    fileio.parse_manifest(b, p, 'x', 1, _TABLE)\n"
        "    parse_manifest(b, p, 'x', 1, fields={})\n"
    )
    assert unnamed_manifest_tables(tree) == [(6, "{'a': int}"), (7, "local"), (9, None),
                                             (11, "local"), (13, "{}")]


def advset_format_sites(tree) -> list:
    """(line, what) of each string that spells the attack-set format name, each
    bytes constant that spells the .emtn magic, and each binding of the field
    table's name, by assignment or import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and "advm-advset" in str(node.value):
            found.append((node.lineno, "advm-advset"))
        elif (isinstance(node, ast.Constant) and type(node.value) is bytes
              and b"EMTN" in node.value):
            found.append((node.lineno, "EMTN"))
        elif ((isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
               and node.id == "_ADVSET_FIELDS")
              or (isinstance(node, ast.alias) and "_ADVSET_FIELDS" in (node.name, node.asname))):
            found.append((node.lineno, "_ADVSET_FIELDS"))
    return sorted(found)


def test_only_evaluate_holds_the_attack_set_format():
    found = [f"{name}:{line} {what}" for name, tree in TREES.items() if name != "evaluate.py"
             for line, what in advset_format_sites(tree)]
    assert not found, "the attack-set format outside evaluate.py: " + ", ".join(found)
    assert {what for _, what in advset_format_sites(TREES["evaluate.py"])} == {
        "advm-advset", "_ADVSET_FIELDS", "EMTN"}, (
        "evaluate.py no longer holds the attack-set format")


def test_attack_set_format_check_flags_planted_sites():
    tree = ast.parse(
        "from .evaluate import _ADVSET_FIELDS, load_attack_set\n"
        "from .evaluate import _ADVSET_FIELDS as fields\n"
        "_FORMAT, _ADVSET_FIELDS = 'advm-advset', {'count': int}\n"
        "def f(m):\n    return m['format'] == f'advm-advset v{m[0]}', 'advm-model'\n"
        "_ADVSET_FIELDS: dict = {}\n"
        "table = _ADVSET_FIELDS\n"
        "_MAGIC, _NAME = b'EMTN\\x01', 'EMTN'\n"
    )
    assert advset_format_sites(tree) == [(1, "_ADVSET_FIELDS"), (2, "_ADVSET_FIELDS"),
                                         (3, "_ADVSET_FIELDS"), (3, "advm-advset"),
                                         (5, "advm-advset"), (6, "_ADVSET_FIELDS"),
                                         (8, "EMTN")]


def json_parses(tree) -> list:
    """(line, name) of each json.load or json.loads the tree calls or imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [(node.lineno, a.name) for a in node.names if a.name in ("load", "loads")]
        elif (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
              and getattr(node.value, "id", None) == "json"):
            found.append((node.lineno, f"json.{node.attr}"))
    return sorted(found)


def test_only_fileio_parses_json():
    found = [f"{name}:{line} {what}" for name, tree in TREES.items() if name != "fileio.py"
             for line, what in json_parses(tree)]
    assert not found, "JSON parsed outside fileio.py: " + ", ".join(found)
    assert json_parses(TREES["fileio.py"]), "fileio.py no longer parses JSON"


def test_json_parse_check_flags_planted_loads():
    tree = ast.parse(
        "import json\nfrom json import loads as parse, dumps\n"
        "def f(fh, text):\n    json.dumps({})\n    doc = json.load(fh)\n"
        "    return json.loads(text), parse(text), fh.load(), pickle.loads(text)\n"
    )
    assert json_parses(tree) == [(2, "loads"), (5, "json.load"), (6, "json.loads")]


_PROCESS_NAMES = {"ProcessPoolExecutor", "multiprocessing", "os.fork"}


def process_spawners(tree) -> list:
    """(line, name) of each use of ProcessPoolExecutor, multiprocessing or os.fork."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]] + [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr, f"{getattr(node.value, 'id', '')}.{node.attr}"]
        else:
            continue
        found += [(node.lineno, n) for n in names if n in _PROCESS_NAMES]
    return sorted(found)


def test_only_attacks_starts_processes():
    found = [f"{name}:{line} {what}" for name, tree in TREES.items() if name != "attacks.py"
             for line, what in process_spawners(tree)]
    assert not found, "process pools outside attacks.py: " + ", ".join(found)
    assert process_spawners(TREES["attacks.py"]), "attacks.py no longer holds the pool"


def test_process_check_flags_a_planted_pool_and_fork():
    tree = ast.parse(
        "import os, json\nimport multiprocessing.util\n"
        "from concurrent.futures import ProcessPoolExecutor, wait\n"
        "from multiprocessing import get_context\n"
        "def f():\n    os.fork()\n    os.getpid()\n"
        "    return concurrent.futures.ProcessPoolExecutor(2)\n"
    )
    assert process_spawners(tree) == [(2, "multiprocessing"), (3, "ProcessPoolExecutor"),
                                      (4, "multiprocessing"), (6, "os.fork"),
                                      (8, "ProcessPoolExecutor")]


def einsum_calls(tree) -> list:
    """(line, keyword names) of each call to einsum, bare or as an attribute;
    a ** mapping, which could carry any keyword, shows as "**"."""
    return sorted((node.lineno, [kw.arg or "**" for kw in node.keywords])
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum")


def test_no_einsum_call_passes_optimize():
    found = [f"{name}:{line}" for name, tree in TREES.items()
             for line, keywords in einsum_calls(tree) if {"optimize", "**"} & set(keywords)]
    assert not found, ("einsum with optimize= contracts through BLAS, which reorders the sums "
                       "train_sgd keeps in example order: " + ", ".join(found))
    assert einsum_calls(TREES["models.py"]), "models.py no longer sums with einsum"


def test_einsum_check_flags_planted_optimize():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import einsum\n"
        "def f(a, b, kw):\n    np.einsum('ij->j', a)\n"
        "    np.einsum('bi,bj->ij', a, b, optimize=True)\n"
        "    einsum('ij->j', a, out=b, optimize='greedy')\n"
        "    numpy.einsum('ij->j', a, **kw)\n    return np.einsum_path('ij->j', a, optimize=True)\n"
    )
    assert einsum_calls(tree) == [(4, []), (5, ["optimize"]), (6, ["out", "optimize"]),
                                  (7, ["**"])]


_DISPATCHED_REDUCTIONS = {"argmax", "argmin", "all", "any"}


def dispatched_reductions(tree) -> list:
    """(line, name) of each np.argmax, np.argmin, np.all or np.any call, through
    np or numpy, and of each import of one of them from numpy."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and getattr(node.func.value, "id", None) in {"np", "numpy"}:
            names = [node.func.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names = [a.name for a in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in _DISPATCHED_REDUCTIONS]
    return sorted(found)


def test_no_module_calls_a_dispatched_reduction():
    found = [f"{name}:{line} np.{fn}" for name, tree in TREES.items()
             for line, fn in dispatched_reductions(tree)]
    assert not found, ("call the ndarray method (x.argmax(), x.all(), ...): it is the same "
                       "routine without np's Python-level dispatch: " + ", ".join(found))


def test_dispatched_reduction_check_flags_planted_calls():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import argmin, isfinite\n"
        "def f(z, t):\n    k = int(np.argmax(z))\n"
        "    if not np.all(np.isfinite(t)) or numpy.any(t < 0):\n        return k\n"
        "    return z.argmax(), t.all(), all(t), any(t), np.max(z), argmin(z)\n"
    )
    assert dispatched_reductions(tree) == [(2, "argmin"), (4, "argmax"), (5, "all"), (5, "any")]


_BUILTIN_CONTAINERS = {"dict", "list", "tuple", "set"}


def container_subclasses(tree) -> list:
    """(line, class name) of each class with a builtin container among its bases,
    bare or as an attribute such as builtins.dict."""
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and any(
                      getattr(b, "attr", getattr(b, "id", None)) in _BUILTIN_CONTAINERS
                      for b in node.bases))


def test_no_class_subclasses_a_builtin_container():
    found = [f"{name}:{line} {cls}" for name, tree in TREES.items()
             for line, cls in container_subclasses(tree)]
    assert not found, ("a result that subclasses a builtin container loses its own "
                       "attributes through dict(x) or x.copy(); return a dataclass or a "
                       "plain tuple instead: " + ", ".join(found))


def test_container_subclass_check_flags_planted_classes():
    tree = ast.parse(
        "import builtins\nfrom dataclasses import dataclass\n"
        "class Means(dict):\n    pass\n"
        "@dataclass\nclass Table:\n    rows: tuple\n"
        "class Rows(Base, builtins.list):\n    pass\n"
        "def f():\n    class Pair(tuple):\n        pass\n"
        "class Names(set, metaclass=Meta):\n    pass\n"
        "class Error(Exception):\n    pass\n"
    )
    assert container_subclasses(tree) == [(3, "Means"), (8, "Rows"), (11, "Pair"), (13, "Names")]


# Private helpers that more than one module shares on purpose.
_SHARED_PRIVATE = {"_craft_and_score", "_pmap", "_require_floats", "_require_ints",
                   "_require_sizes"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def cross_module_private_names(tree) -> list:
    """(line, name) of each underscore name imported from an advm module, or
    read as an attribute of an advm module the tree imports by name."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "advm"):
            found += [(node.lineno, a.name) for a in node.names if _private(a.name)]
            if node.module in (None, "advm"):
                modules.update(a.asname or a.name for a in node.names)
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)
              and getattr(node.value, "id", None) in modules]
    return sorted(found)


def test_no_private_name_crosses_a_module_boundary():
    names = [(name, line, what) for name, tree in TREES.items()
             for line, what in cross_module_private_names(tree)]
    found = [f"{name}:{line} {what}" for name, line, what in names
             if what not in _SHARED_PRIVATE]
    assert not found, "private names taken from another module: " + ", ".join(found)
    assert {what for _, _, what in names} == _SHARED_PRIVATE, "stale shared-private list"


def test_private_name_check_flags_planted_imports_and_attributes():
    tree = ast.parse(
        "from .tensor import _band, project_linf\n"
        "from advm.attacks import _pmap as pm\n"
        "from . import transforms, __version__\n"
        "from numpy import _private\n"
        "def f(self):\n"
        "    return transforms._dim_matrix, transforms.compose_dts, self._x\n"
    )
    assert cross_module_private_names(tree) == [(1, "_band"), (2, "_pmap"),
                                                (6, "_dim_matrix")]


def unraised_error_classes(errors_tree, trees) -> list:
    """(line, name) of each class errors_tree derives from AdvmError, directly
    or through another of its classes, that no `raise` in trees names."""
    raised = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    derived, found = {"AdvmError"}, []
    for node in errors_tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(b, "id", None) in derived for b in node.bases):
            derived.add(node.name)
            if node.name not in raised:
                found.append((node.lineno, node.name))
    return found


def test_every_error_class_is_raised():
    found = [f"errors.py:{line} {name}"
             for line, name in unraised_error_classes(TREES["errors.py"], TREES.values())]
    assert not found, "error classes nothing raises: " + ", ".join(found)


def test_error_class_check_flags_a_planted_unraised_class():
    errors = ast.parse(
        "class AdvmError(Exception):\n    pass\n"
        "class Raised(AdvmError):\n    pass\n"
        "class ViaModule(Raised):\n    pass\n"
        "class Planted(AdvmError):\n    pass\n"
        "class Unrelated(Exception):\n    pass\n"
    )
    user = ast.parse("def f():\n    raise Raised('x') from None\n"
                     "def g():\n    raise errors.ViaModule\n"
                     "def h():\n    return Planted('built, never raised')\n")
    assert unraised_error_classes(errors, [errors, user]) == [(7, "Planted")]


def _sites(tree, hit) -> list:
    """(line, innermost enclosing function) of each node of tree that hit accepts;
    the function is None for a node at module or class level."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.append((child.lineno, fn))
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_fn else fn)

    visit(tree, None)
    return found


def raises_of(tree, name: str) -> list:
    """(line, innermost enclosing function) of each `raise name` in tree; the
    function is None for a raise at module or class level."""
    def hit(node):
        if not (isinstance(node, ast.Raise) and node.exc is not None):
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return name in (getattr(exc, "id", None), getattr(exc, "attr", None))

    return _sites(tree, hit)


def reads_of(tree, name: str) -> list:
    """(line, innermost enclosing function) of each read of name in tree, bare or
    as an attribute, whether it is called there or passed on as a value."""
    return _sites(tree, lambda node: (isinstance(node, ast.Name) and node.id == name
                                      and isinstance(node.ctx, ast.Load))
                  or (isinstance(node, ast.Attribute) and node.attr == name))


def test_label_out_of_range_is_raised_only_by_check_label():
    found = [f"{name}:{line} in {fn}" for name, tree in TREES.items()
             for line, fn in raises_of(tree, "LabelOutOfRange")
             if (name, fn) != ("data.py", "check_label")]
    assert not found, "LabelOutOfRange raised outside data.check_label: " + ", ".join(found)
    assert [fn for _, fn in raises_of(TREES["data.py"], "LabelOutOfRange")] == ["check_label"]


def test_raise_check_flags_planted_label_raises():
    tree = ast.parse(
        "def check_label(y):\n    raise LabelOutOfRange(y)\n"
        "class M:\n    def _xent(self, y):\n        if y:\n"
        "            raise errors.LabelOutOfRange\n"
        "        def inner():\n            raise LabelOutOfRange('x') from None\n"
        "raise LabelOutOfRange\n"
        "def other():\n    raise ShapeMismatch('y')\n"
    )
    assert raises_of(tree, "LabelOutOfRange") == [(2, "check_label"), (6, "_xent"),
                                                  (8, "inner"), (9, None)]


# Where each crafting or scoring entry point may be read, as (module, function):
# only the one builder crafts and scores, and every table reaches it; besides it,
# only `advm attack` crafts, and only `advm eval` scores a stored set.
_CRAFT_AND_SCORE_SITES = {
    "attack_batch": {("evaluate.py", "_craft_and_score"), ("cli.py", "attack_cmd")},
    "fooled": {("evaluate.py", "_craft_and_score"), ("evaluate.py", "attack_success_rate")},
    "attack_success_rate": {("cli.py", "eval_cmd")},
    "_craft_and_score": {("evaluate.py", "ablation_sweep"), ("experiment.py", "white_box_rate"),
                         ("experiment.py", "mean_transfer")},
}


def read_sites(trees, table) -> set:
    """(name, module, function) of every read of a name of table, in trees by module."""
    return {(name, module, fn) for module, tree in trees.items() for name in table
            for _, fn in reads_of(tree, name)}


def test_only_the_builder_crafts_and_scores():
    allowed = {(name, *site) for name, sites in _CRAFT_AND_SCORE_SITES.items() for site in sites}
    found = read_sites(LINTED, _CRAFT_AND_SCORE_SITES)
    assert not found - allowed, "crafting or scoring outside its sites: " + ", ".join(
        f"{name} in {module}:{fn}" for name, module, fn in sorted(found - allowed, key=str))
    assert found == allowed, "stale crafting sites: " + ", ".join(
        f"{name} in {module}:{fn}" for name, module, fn in sorted(allowed - found, key=str))


def test_craft_and_score_check_flags_planted_sites():
    tree = ast.parse(
        "from .attacks import attack_batch\n"
        "def _craft_and_score(groups):\n    return attack_batch(groups)\n"
        "def transfer_matrix(rows):\n    rates = [attack_batch(r) for r in rows]\n"
        "    return _pmap(attack_batch, rows), fooled\n"
        "class Study:\n    def run(self):\n        return attacks.attack_batch(self)\n"
        "attack_batch = None\nprint(attack_batch)\n"
    )
    assert reads_of(tree, "attack_batch") == [(3, "_craft_and_score"), (5, "transfer_matrix"),
                                              (6, "transfer_matrix"), (9, "run"), (11, None)]
    table = {"attack_batch": set(), "fooled": set(), "transfer_rates": set()}
    assert read_sites({"evaluate.py": tree}, table) == {
        ("attack_batch", "evaluate.py", fn)
        for fn in ("_craft_and_score", "transfer_matrix", "run", None)} | {
        ("fooled", "evaluate.py", "transfer_matrix")}


# The one desk-world recipe: what it alone may read in experiment.py.
_DESK_RECIPE = ("train_sgd", "generate_synthetic")


def desk_recipe_sites(tree) -> list:
    """(line, function, name) of each read of a _DESK_RECIPE name outside _desk_world."""
    return sorted((line, fn, name) for name in _DESK_RECIPE
                  for line, fn in reads_of(tree, name) if fn != "_desk_world")


def test_only_desk_world_generates_and_trains():
    tree = TREES["experiment.py"]
    found = [f"experiment.py:{line} {name} in {fn}" for line, fn, name in desk_recipe_sites(tree)]
    assert not found, "desk data or models made outside _desk_world: " + ", ".join(found)
    for name in _DESK_RECIPE:
        assert [fn for _, fn in reads_of(tree, name)] == ["_desk_world"], f"stale: {name}"


def test_desk_recipe_check_flags_planted_sites():
    tree = ast.parse(
        "from .models import train_sgd\n"
        "def _desk_world(seed):\n    return train_sgd(generate_synthetic(seed))\n"
        "def build_whitebox_world(seed):\n    return models.train_sgd(seed)\n"
        "def _windows(seed):\n"
        "    def window():\n        return generate_synthetic(seed)\n"
        "    return window\n"
        "train = train_sgd\n"
    )
    assert desk_recipe_sites(tree) == [(5, "build_whitebox_world", "train_sgd"),
                                       (8, "window", "generate_synthetic"), (10, None, "train_sgd")]


def _into_np_random(node) -> bool:
    """A call through np.random or numpy.random, or an import that names numpy.random."""
    if isinstance(node, ast.Call):
        return re.match(r"(np|numpy)\.random\.", ast.unparse(node.func)) is not None
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy.random" or (
            node.module == "numpy" and any(a.name == "random" for a in node.names))
    return isinstance(node, ast.Import) and any(
        a.name.startswith("numpy.random") for a in node.names)


def stream_sites(trees) -> set:
    """(module, innermost function) of each call into np.random in trees by module,
    and of each import of numpy.random; the function is None at module level."""
    return {(module, fn) for module, tree in trees.items()
            for _, fn in _sites(tree, _into_np_random)}


def test_only_derive_rng_builds_a_stream():
    found = stream_sites(TREES)
    allowed = {("sampling.py", "derive_rng")}
    assert not found - allowed, "np.random used outside sampling.derive_rng: " + ", ".join(
        f"{module}:{fn}" for module, fn in sorted(found - allowed, key=str))
    assert found == allowed, "derive_rng builds no stream"


def test_stream_check_flags_planted_constructors():
    tree = ast.parse(
        "import numpy as np\nfrom numpy.random import default_rng\n"
        "def derive_rng(seed: int, index: int) -> np.random.Generator:\n"
        "    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))\n"
        "def generate_synthetic(seed, rng: np.random.Generator = None):\n"
        "    return np.random.default_rng(seed), rng.random(), default_rng(seed)\n"
        "def noise():\n    return numpy.random.normal(size=3)\n"
        "def _subsample():\n    from numpy import random\n    import numpy.random as npr\n"
        "order = np.random.permutation(4)\n"
    )
    assert sorted(_sites(tree, _into_np_random), key=str) == [
        (10, "_subsample"), (11, "_subsample"), (12, None), (2, None), (4, "derive_rng"),
        (4, "derive_rng"), (4, "derive_rng"), (6, "generate_synthetic"), (8, "noise")]
    assert stream_sites({"data.py": tree}) - {("data.py", "derive_rng")} == {
        ("data.py", fn) for fn in (None, "generate_synthetic", "noise", "_subsample")}


# Where each transform setting may be read in src/, as (module, function):
# TransformConfig checks the dim sides and resolves them for an image shape, and
# the tim kernel is built only for the cached band pair of a checked config.
_TRANSFORM_SETTING_SITES = {
    "dim_resize_low": {("transforms.py", "__post_init__"), ("transforms.py", "dim_sides")},
    "dim_pad_to": {("transforms.py", "__post_init__"), ("transforms.py", "dim_sides")},
    "PAD_RATIO": {("transforms.py", "dim_sides")},
    "_tim_kernel": {("transforms.py", "_tim_matrices")},
}


def stray_transform_setting_reads(trees) -> list:
    """(name, module, function) of each read in trees of a _TRANSFORM_SETTING_SITES
    name outside its sites, sorted."""
    return sorted((name, module, fn) for name, module, fn in
                  read_sites(trees, _TRANSFORM_SETTING_SITES)
                  if (module, fn) not in _TRANSFORM_SETTING_SITES[name])


def test_transform_settings_are_resolved_only_in_transform_config():
    found = stray_transform_setting_reads(TREES)
    assert not found, "transform settings read outside their sites: " + ", ".join(
        f"{name} in {module}:{fn}" for name, module, fn in found)
    allowed = {(name, *site) for name, sites in _TRANSFORM_SETTING_SITES.items()
               for site in sites}
    assert read_sites(TREES, _TRANSFORM_SETTING_SITES) == allowed, "stale transform-setting sites"


def test_transform_setting_check_flags_a_planted_second_resolver():
    tree = ast.parse(
        "PAD_RATIO = 1.104\n"
        "class TransformConfig:\n    dim_pad_to: int | None = None\n"
        "    def dim_sides(self, shape):\n"
        "        return self.dim_resize_low, self.dim_pad_to or PAD_RATIO * shape[0]\n"
        "def draw_dim_geometry(cfg, shape, rng):\n"
        "    pad = cfg.dim_pad_to or math.ceil(PAD_RATIO * shape[0])\n"
        "    return _tim_kernel(pad, 1.0)\n"
        "def _tim_matrices(size, sigma, h, w):\n    return _tim_kernel(size, sigma)\n"
    )
    assert stray_transform_setting_reads({"transforms.py": tree}) == [
        ("PAD_RATIO", "transforms.py", "draw_dim_geometry"),
        ("_tim_kernel", "transforms.py", "draw_dim_geometry"),
        ("dim_pad_to", "transforms.py", "draw_dim_geometry")]
    assert stray_transform_setting_reads({"cli.py": tree})[0] == ("PAD_RATIO", "cli.py",
                                                                  "dim_sides")


# The configs whose numbers go through sampling's shared checks, each with the
# fields besides its int, float and optional int ones that must go through too.
_NUMBER_RULE_CLASSES = {"AttackConfig": (), "SamplingSpec": (), "TransformConfig": (),
                        "ModelSpec": ("input_shape", "hidden"), "LabeledDataset": ()}
_NUMBER_ANNOTATIONS = {"int", "float", "int | None"}


def _is_require_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", "")).startswith("_require_")


def _required_reads(fn) -> set:
    """The names each _require_* call in fn reads, as self.<name> or as a string."""
    read = set()
    for call in ast.walk(fn):
        if _is_require_call(call):
            for node in ast.walk(call):
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    return read


def unchecked_number_fields(tree, classes) -> list:
    """(class, field) of each field of a class named in classes whose annotation
    is int, float or int | None, or that classes lists for it, and that no
    _require_* call in the class's __post_init__ reads."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name in classes):
            continue
        read = set().union(*(_required_reads(fn) for fn in node.body
                             if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"))
        found += [(node.name, f.target.id) for f in node.body if isinstance(f, ast.AnnAssign)
                  and (ast.unparse(f.annotation) in _NUMBER_ANNOTATIONS
                       or f.target.id in classes[node.name])
                  and f.target.id not in read]
    return found


def test_every_number_field_goes_through_the_shared_checks():
    found = [f"{name}: {cls}.{field}" for name, tree in LINTED.items()
             for cls, field in unchecked_number_fields(tree, _NUMBER_RULE_CLASSES)]
    assert not found, "number fields no _require_* call checks: " + ", ".join(found)
    classes = {node.name for tree in LINTED.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    assert set(_NUMBER_RULE_CLASSES) <= classes, "stale number-rule classes"


def test_number_field_check_flags_planted_fields():
    tree = ast.parse(
        "class Config:\n"
        "    variant: str = 'x'\n    iters: int = 10\n    eps: float = 0.1\n"
        "    side: int | None = None\n    seed: int = 0\n    shape: tuple = ()\n"
        "    count: int = 1\n    rate: float = 0.5\n"
        "    def __post_init__(self):\n"
        "        _require_sizes(1, self, 'iters', *(n for n in ('side',) if n))\n"
        "        sampling._require_floats(0.0, self, 'eps')\n"
        "        _require_ints(0, **{'shape[0]': self.shape[0]})\n"
        "        if self.seed < 0 or not self.rate:\n            raise ValueError('seed')\n"
        "    def check(self):\n        _require_ints(0, self, 'count')\n"
        "class Other:\n    n: int = 0\n"
    )
    assert unchecked_number_fields(tree, {"Config": ("shape",)}) == [
        ("Config", "seed"), ("Config", "count"), ("Config", "rate")]


# Number parameters of public functions that keep a check of their own, each
# with its reason.
_NUMBER_PARAM_EXCEPTIONS = {
    ("project_linf", "eps"): "an infinite eps is a valid budget, which the float rule refuses",
    ("check_label", "classes"): "it runs on every gradient query, and each caller passes a "
                                "class count that its own config or dataset has checked",
    ("parse_manifest", "version"): "each reader passes its own format constant, never a user's",
}


def _args(fn) -> list:
    return fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs


def checked_params(trees, classes) -> set:
    """(function, parameter) of each module-level function's parameter that a
    _require_* call in it reads as a name, or that it passes on unchanged (a bare
    name, by position or keyword) to such a parameter of another module-level
    function, or to a field of a class in classes that its __post_init__'s
    _require_* calls read."""
    fns = {node.name: node for tree in trees for node in tree.body
           if isinstance(node, ast.FunctionDef)}
    targets = {name: [a.arg for a in _args(fn)] for name, fn in fns.items()}
    checked = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.ClassDef) and node.name in classes:
            targets[node.name] = [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)]
            checked |= {(node.name, field) for fn in node.body if isinstance(fn, ast.FunctionDef)
                        and fn.name == "__post_init__" for field in _required_reads(fn)}
    passes = []   # ((function, parameter), (callee, its parameter))
    for name, fn in fns.items():
        params = set(targets[name])
        for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
            if _is_require_call(call):
                checked |= {(name, n.id) for n in ast.walk(call)
                            if isinstance(n, ast.Name) and n.id in params}
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if callee not in targets:
                continue
            given = [(targets[callee][i], arg) for i, arg in enumerate(call.args)
                     if i < len(targets[callee])] + [(kw.arg, kw.value) for kw in call.keywords]
            passes += [((name, arg.id), (callee, to)) for to, arg in given
                       if isinstance(arg, ast.Name) and arg.id in params]
    grown = True
    while grown:
        grown = False
        for site, to in passes:
            if to in checked and site not in checked:
                checked.add(site)
                grown = True
    return checked


def unchecked_number_params(trees, classes) -> list:
    """(function, parameter) of each parameter annotated int or float of a public
    module-level function that checked_params leaves out."""
    checked = checked_params(trees, classes)
    return [(fn.name, a.arg) for tree in trees for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            for a in _args(fn)
            if a.annotation is not None and ast.unparse(a.annotation) in ("int", "float")
            and (fn.name, a.arg) not in checked]


def test_every_number_argument_goes_through_the_shared_checks():
    found = unchecked_number_params(LINTED.values(), _NUMBER_RULE_CLASSES)
    rest = [f"{fn}.{param}" for fn, param in found if (fn, param) not in _NUMBER_PARAM_EXCEPTIONS]
    assert not rest, "number arguments no _require_* call checks: " + ", ".join(rest)
    assert set(found) == set(_NUMBER_PARAM_EXCEPTIONS), "stale number-argument exceptions"


def test_number_argument_check_flags_planted_sites():
    tree = ast.parse(
        "class Config:\n    n: int = 1\n    x: float = 0.0\n"
        "    def __post_init__(self):\n        _require_sizes(1, self, 'n')\n"
        "def make(n: int, x: float, k: int):\n    return Config(n, x=x), helper(k)\n"
        "def helper(k: int, j: int = 0):\n"
        "    sampling._require_ints(0, **{'k index': k})\n    return j\n"
        "def passes(m: int, r: float):\n    return make(1, r, m)\n"
        "def shifted(m: int):\n    return helper(m + 1)\n"
        "def reads_outside(s: int, t: str):\n"
        "    if s < 0:\n        raise ValueError(s)\n    _require_ints(0, t=1)\n"
        "def _private(q: int):\n    return q\n"
    )
    assert unchecked_number_params([tree], {"Config": ()}) == [
        ("make", "x"), ("helper", "j"), ("passes", "r"), ("shifted", "m"),
        ("reads_outside", "s")]


def _is_int_range(node) -> bool:
    return isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)) == "IntRange"


def int_range_sites(tree) -> list:
    """(line, site) of each click.IntRange call in tree: site is the module-level
    name it is bound to, else the first flag of the click.option it types, else None."""
    sites = {node.value: node.targets[0].id for node in tree.body
             if isinstance(node, ast.Assign) and _is_int_range(node.value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "option":
            sites.update({kw.value: node.args[0].value for kw in node.keywords
                          if kw.arg == "type" and _is_int_range(kw.value)})
    return sorted(((node.lineno, sites.get(node)) for node in ast.walk(tree)
                   if _is_int_range(node)), key=lambda site: site[0])


# The CLI's IntRange types: the one count type, and train --seed's, which has no
# upper bound because a seed is no count.
_INT_RANGE_SITES = {"_COUNT", "--seed"}


def test_the_cli_writes_its_count_rule_once():
    sites = [site for _, site in int_range_sites(TREES["cli.py"])]
    assert sorted(sites, key=str) == sorted(_INT_RANGE_SITES), (
        f"click.IntRange outside the shared count type: {sites}")
    assert (cli._COUNT.min, cli._COUNT.max) == (1, SIZE_LIMIT - 1)


def test_count_rule_check_flags_planted_int_ranges():
    tree = ast.parse(
        "_COUNT = click.IntRange(1, SIZE_LIMIT - 1)\n"
        "@click.option('--seed', type=click.IntRange(min=0))\n"
        "@click.option('--epochs', '-e', type=IntRange(min=1), default=8)\n"
        "@click.option('--batch', type=_COUNT)\n"
        "def train(seed, epochs, batch):\n    limit = click.IntRange(0, 9)\n"
    )
    assert int_range_sites(tree) == [(1, "_COUNT"), (2, "--seed"), (3, "--epochs"), (6, None)]


def readme_advm_imports(text: str) -> set:
    """Names imported `from advm` in the ```python blocks of a markdown text."""
    names = set()
    for block in re.findall(r"^```python\n(.*?)^```", text, re.S | re.M):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "advm":
                names.update(a.name for a in node.names)
    return names


def test_readme_imports_only_names_advm_exports():
    imported = readme_advm_imports((ROOT / "README.md").read_text(encoding="utf-8"))
    assert imported, "README shows no `from advm import`"
    assert not imported - set(advm.__all__), "README imports unexported names"
    assert [n for n in advm.__all__ if not hasattr(advm, n)] == [], "unbound __all__ entries"


def test_readme_imports_reads_only_python_blocks():
    text = ("```python\nfrom advm import (\n    a, b,\n)\nimport advm\n```\n"
            "from advm import prose\n```sh\nfrom advm import shell\n```\n"
            "```python\nfrom advm.attacks import c\nfrom advm import d\n```\n")
    assert readme_advm_imports(text) == {"a", "b", "d"}


def readme_prose_calls(text: str) -> set:
    """Names written as a backticked call, `name(...` or `A.b(...`, outside the
    fenced blocks."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\(", prose))


def unresolved_names(names) -> set:
    """The names whose head is no attribute of advm or of any of its modules,
    or whose dotted tail does not resolve from there, attribute by attribute."""
    modules = [advm] + [importlib.import_module(f"advm.{m.name}")
                        for m in pkgutil.iter_modules(advm.__path__)]

    def resolves(name):
        head, *tail = name.split(".")
        for obj in (getattr(m, head) for m in modules if hasattr(m, head)):
            try:
                functools.reduce(getattr, tail, obj)
                return True
            except AttributeError:
                pass
        return False

    return {n for n in names if not resolves(n)}


def test_readme_prose_calls_name_advm_attributes():
    called = readme_prose_calls((ROOT / "README.md").read_text(encoding="utf-8"))
    assert called, "README prose names no backticked call"
    assert not unresolved_names(called), "README prose calls stale names"


def test_readme_prose_call_check_flags_a_planted_stale_name():
    text = ("Use `run_attack(oracle, x, y, cfg)`, then `TransferMatrix(rows, ...)`.\n"
            "```python\nAblationResult(1)\n```\nA bare `mean_transfer` is no call.\n"
            "`TransformConfig.dim_sides(shape)` passes, `TransformConfig.resolve_dim(side)`"
            " and `fgsm(oracle, x, y, eps)` do not.\n")
    called = readme_prose_calls(text)
    assert called == {"run_attack", "TransferMatrix", "TransformConfig.dim_sides",
                      "TransformConfig.resolve_dim", "fgsm"}
    assert unresolved_names(called | {"white_box_rate", "parse_manifest"}) == {
        "TransferMatrix", "TransformConfig.resolve_dim", "fgsm"}


def readme_shell_commands(text: str) -> list:
    """(command, options) of each line that starts with `advm` in the ```sh blocks
    of a markdown text, with backslash continuations joined; an option is each
    word that starts with --, up to any =."""
    found = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split()
            if words[:1] == ["advm"]:
                found.append((words[1] if len(words) > 1 else "",
                              [w.split("=", 1)[0] for w in words[2:] if w.startswith("--")]))
    return found


def stale_shell_commands(commands) -> list:
    """`advm <command>` for each command the CLI lacks, and `advm <command> <option>`
    for each option that command does not take."""
    stale = []
    for name, options in commands:
        command = cli.main.commands.get(name)
        if command is None:
            stale.append(f"advm {name}")
            continue
        known = {"--help"} | {o for p in command.params for o in p.opts + p.secondary_opts}
        stale += [f"advm {name} {o}" for o in options if o not in known]
    return stale


def test_readme_shell_examples_name_real_commands_and_options():
    commands = readme_shell_commands((ROOT / "README.md").read_text(encoding="utf-8"))
    assert {name for name, _ in commands} >= {"train", "attack", "eval", "ablate"}
    assert not stale_shell_commands(commands), "README shows stale advm command lines"


def test_readme_shell_check_flags_planted_stale_lines():
    text = ("```sh\nadvm report --in x --format markdown\n"
            "advm attack --surrogate s.json --dataset synthetic:2x3x6 \\\n"
            "    --config f --out=adv/   # a comment\n"
            "  advm eval --adv a --targets t\npip install advm\n```\n"
            "advm report --in prose\n```python\nadvm ablate --config f\n```\n")
    commands = readme_shell_commands(text)
    assert commands == [("report", ["--in", "--format"]),
                        ("attack", ["--surrogate", "--dataset", "--config", "--out"]),
                        ("eval", ["--adv", "--targets"])]
    assert stale_shell_commands(commands) == ["advm report", "advm attack --config"]
