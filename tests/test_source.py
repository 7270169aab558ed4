"""Static checks over the package source, using only the stdlib ``ast``
(and, for the names-once check, the names the package declares)."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "echochan"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name -> line of every import binding, except ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_no_unused_imports():
    # __init__.py imports in order to re-export, so it is not checked
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {PACKAGE}"
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in _imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.name}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _import_sites(package: str) -> list[str]:
    """``module.py:line`` of every import of ``package`` or its submodules."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == package for module in modules):
                sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_no_scipy_import():
    # the runtime needs numpy and PyYAML only; scipy would load a second BLAS
    importers = _import_sites("scipy")
    assert not importers, f"scipy is imported at {importers}"


def test_ctypes_only_in_numerics():
    # direct BLAS calls go through ctypes, and live in one module
    importers = {site.split(":")[0] for site in _import_sites("ctypes")}
    assert importers == {"numerics.py"}, f"ctypes is imported in {sorted(importers)}"


def _owners(matches) -> set[str]:
    """``module:function`` of every node under the package that ``matches``;
    a nested function's nodes belong to the function that defines it."""
    owners = set()

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        if matches(node):
            owners.add(f"{path.name}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "<module>")
    return owners


def test_one_state_stepping_function():
    # the activation is applied where the state recurrence is stepped, and
    # only there: a second `.apply` means a second copy of the recurrence
    users = _owners(lambda node: isinstance(node, ast.Attribute) and node.attr == "apply")
    assert len(users) == 1, f"the activation is applied in {sorted(users) or 'no function'}"


def test_one_prediction_loop():
    # states are stepped through one entry, `_blocks`, which `state_blocks`
    # (training and harvests) and `predictions` (the one loop that turns
    # them into outputs) both call: it alone calls the stepping generator
    assert _callers("_step_blocks") == {"reservoir.py:_blocks"}
    entries = _callers("_blocks")
    expected = {"reservoir.py:state_blocks", "reservoir.py:predictions"}
    assert entries == expected, f"_blocks is called from {sorted(entries)}"


def test_one_segment_layout_and_seam_rule():
    # every split call cuts its time segments by one layout
    # (`_Segments.__init__`, the one reader of WARMUP) and checks its seams
    # by one comparison (`_Segments.kept`, the one reader of SEAM_TOL, which
    # alone raises `_SeamFailed`); the one stepping entry alone plans the
    # splits (`_Segments.plan`), and one restart (`run_split`, the one
    # handler of `_SeamFailed`) runs both split calls, the fold and the
    # predictions, again unsplit after a failed seam
    def reads(name):
        return lambda node: isinstance(node, ast.Name) and node.id == name and isinstance(
            node.ctx, ast.Load
        )

    def names(node, name):
        return any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))

    layout, seams = _owners(reads("WARMUP")), _owners(reads("SEAM_TOL"))
    assert layout == {"reservoir.py:__init__"}, f"WARMUP is read in {sorted(layout)}"
    assert seams == {"reservoir.py:kept"}, f"SEAM_TOL is read in {sorted(seams)}"
    planners = _callers("plan")
    assert planners == {"reservoir.py:_blocks"}, f"the segments are planned in {sorted(planners)}"
    raisers = _owners(lambda node: isinstance(node, ast.Raise) and names(node, "_SeamFailed"))
    assert raisers == {"reservoir.py:kept"}, f"_SeamFailed is raised in {sorted(raisers)}"
    handlers = _owners(
        lambda node: isinstance(node, ast.ExceptHandler) and names(node.type, "_SeamFailed")
    )
    assert handlers == {"reservoir.py:run_split"}, f"_SeamFailed is caught in {sorted(handlers)}"
    namers = {owner.split(":")[0] for owner in _owners(lambda node: names(node, "_SeamFailed"))}
    assert namers == {"reservoir.py"}, f"_SeamFailed is named in {sorted(namers)}"
    restarts = _callers("run_split")
    expected = {"readout.py:accumulate_dataset", "reservoir.py:predictions"}
    assert restarts == expected, f"run_split is called from {sorted(restarts)}"
    # the stepping generators hand out (first, t0, states) blocks only: no
    # None in the block stream, so no fold resets and no prediction skips
    tree = ast.parse((PACKAGE / "reservoir.py").read_text())
    generators = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("_step_blocks", "blocks")
    ]
    assert len(generators) == 2
    for generator in generators:
        for node in ast.walk(generator):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                assert isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple), (
                    f"{generator.name}:{node.lineno} yields something other than a block"
                )


def test_one_csv_writer():
    # every CSV report is written through one function
    def is_csv_writer(node):
        func = node.func if isinstance(node, ast.Call) else None
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "writer"
            and isinstance(func.value, ast.Name)
            and func.value.id == "csv"
        )

    writers = _owners(is_csv_writer)
    assert len(writers) == 1, f"csv.writer is called in {sorted(writers) or 'no function'}"


def test_one_container_writer():
    # both containers write their fixed fields through one function
    def writes_version(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "to_bytes"
            and isinstance(node.value, ast.Name)
            and node.value.id == "FORMAT_VERSION"
        )

    writers = _owners(writes_version)
    assert len(writers) == 1, f"the format version is written in {sorted(writers) or 'no function'}"


def test_one_container_reader():
    # both containers read their payload into the owners' arrays through
    # one function, and no loader keeps a view of a bytes payload
    def reads_payload(node):
        func = node.func if isinstance(node, ast.Call) else None
        return isinstance(func, ast.Attribute) and func.attr == "readinto"

    readers = _owners(reads_payload)
    assert len(readers) == 1, f"payload bytes are read in {sorted(readers) or 'no function'}"
    store = ast.parse((PACKAGE / "store.py").read_text())
    views = [
        node.lineno
        for node in ast.walk(store)
        if isinstance(node, ast.Attribute) and node.attr == "frombuffer"
    ]
    assert not views, f"store.py makes frombuffer views at lines {views}"


def _callers(name: str) -> set[str]:
    """``module:function`` of every call of ``name``, bare or as an attribute."""

    def calls(node):
        func = node.func if isinstance(node, ast.Call) else None
        return (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name
        )

    return _owners(calls)


def test_one_fold_and_one_merge():
    # b is built by one Gram rule, and every set of accumulators the package
    # makes comes from the one fold, which weights a transfer blend's
    # datasets, or the one merge
    assert _callers("add_gram_upper") == {"readout.py:_fold"}
    assert _callers("mirror_upper") == {"readout.py:_fold", "numerics.py:solve_spd"}
    assert _callers("Accumulators") == {"readout.py:_fold", "readout.py:merge"}


def test_feedback_decided_in_reservoir():
    # whether a run feeds its output back is read only where the reservoir
    # is built and in the one stepping entry, which decides it for every call
    def reads_feedback(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "use_feedback"
            and isinstance(node.ctx, ast.Load)
        )

    readers = _owners(reads_feedback)
    expected = {"reservoir.py:build", "reservoir.py:_blocks"}
    assert readers == expected, f".use_feedback is read in {sorted(readers)}"


# Public functions that stay with no caller in the package: the
# `[project.scripts]` console script, and the one-sequence channel entry
# point that `test_channelsim` checks against a convolution oracle.
_ENTRY_POINTS = {"entrypoint", "apply_channel"}


def test_every_public_function_has_a_caller():
    # a caller references the function, method or property by a name or an
    # attribute (not a string) outside its own body, in the package (whose
    # __init__.py only re-exports), the acceptance tests or the benchmark;
    # a class body's statements count one by one, like a module's
    root = PACKAGE.parent.parent
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    others = [root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").glob("*.py"))]
    statements = [
        (path, stmt)
        for path in modules + others
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for stmt in ([top, *top.body] if isinstance(top, ast.ClassDef) else [top])
    ]

    def references(stmt):
        nodes = stmt.decorator_list + stmt.bases if isinstance(stmt, ast.ClassDef) else [stmt]
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    refs = [references(stmt) for _, stmt in statements]
    uncalled = [
        f"{path.name}:{stmt.name}"
        for path, stmt in statements
        if path in modules
        and isinstance(stmt, ast.FunctionDef)
        and not stmt.name.startswith("_")
        and stmt.name not in _ENTRY_POINTS
        and not any(
            stmt.name in names for (_, other), names in zip(statements, refs) if other is not stmt
        )
    ]
    assert not uncalled, f"public functions with no caller: {uncalled}"


def test_regression_names_in_one_module():
    # a regression method is named only where its class is declared
    names = {"ridge", "linear", "lasso"}
    modules = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(
            isinstance(node, ast.Constant) and node.value in names
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        )
    )
    assert len(modules) <= 1, f"regression method names are written in {modules}"


def _strings(path: Path) -> list[tuple[int, str]]:
    """``(line, text)`` of every string constant in ``path`` but its docstrings."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    ]


def test_method_and_enum_names_spelled_where_declared():
    # a regression method, initializer or activation name is written only in
    # the module that declares it; help text, defaults and messages elsewhere
    # are built from the declaration, so a new member cannot be left out
    from echochan.readout import METHODS
    from echochan.reservoir import Activation, InitMethod

    declared = {
        "readout.py": list(METHODS),
        "reservoir.py": [member.value for enum in (InitMethod, Activation) for member in enum],
    }
    spelled = []
    for owner, names in declared.items():
        word = re.compile(r"\b(?:" + "|".join(map(re.escape, names)) + r")\b")
        spelled += [
            f"{path.name}:{line}: {text!r}"
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != owner
            for line, text in _strings(path)
            if word.search(text)
        ]
    assert not spelled, "names spelled outside their declaring module:\n" + "\n".join(spelled)


# Defaults that no type owns: the master seed, the thread count and the
# sweep's value lists.
_CONFIG_OWNED_DEFAULTS = {
    "master_seed",
    "threads",
    "radius_values",
    "size_values",
    "init_values",
    "activation_values",
    "regression_values",
}


def test_config_defaults_stated_by_their_owners():
    # a default in config.py's key tables ({key: (kind, default)}) is read
    # from the type that owns it, so no number or boolean is written there
    # but the defaults config owns
    tree = ast.parse((PACKAGE / "config.py").read_text())
    checked, literals = set(), []
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if not (isinstance(key, ast.Constant) and isinstance(value, ast.Tuple)):
                continue
            checked.add(key.value)
            if key.value in _CONFIG_OWNED_DEFAULTS or len(value.elts) != 2:
                continue
            literals += [
                f"config.py:{n.lineno}: {key.value}"
                for n in ast.walk(value.elts[1])
                if isinstance(n, ast.Constant) and isinstance(n.value, (int, float))
            ]
    assert {"sparsity", "ridge_lambda", "train_fraction", "repeats"} <= checked, sorted(checked)
    assert not literals, "defaults written in config.py's key tables:\n" + "\n".join(literals)


# Limits on values a config key, a flag or a sweep list sets, as the name
# of the value and the bounds it is compared with. Each is stated by one
# comparison, in the type or function that owns the value and raises
# `ConfigError`; the config reads the keys by their plain kinds and the
# CLI passes the flags on unchecked.
_LIMITS = {
    "sparsity": {0, 1},
    "num_sequences": {0},
    "alpha": {0, 1},
    "repeats": {1},
    "train_fraction": {0, 1},
}


def test_each_limit_stated_once():
    from echochan import config

    def limit_stated(node):
        """The limit that an ordering of one name between constant bounds,
        tested by an ``if`` that raises, states."""
        orderings = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        if not isinstance(node, ast.Compare) or not all(isinstance(op, orderings) for op in node.ops):
            return None
        operands = [node.left, *node.comparators]
        names = [
            n.id if isinstance(n, ast.Name) else n.attr
            for n in operands
            if isinstance(n, (ast.Name, ast.Attribute))
        ]
        bounds = [n.value for n in operands if isinstance(n, ast.Constant)]
        if len(names) != 1 or len(names) + len(bounds) != len(operands):
            return None
        return names[0] if _LIMITS.get(names[0]) == set(bounds) else None

    sites = {limit: [] for limit in _LIMITS}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        checks = [
            n for n in ast.walk(tree) if isinstance(n, ast.If) and isinstance(n.body[0], ast.Raise)
        ]
        for node in (n for check in checks for n in ast.walk(check.test)):
            limit = limit_stated(node)
            if limit is not None:
                sites[limit].append(f"{path.name}:{node.lineno}")
    assert all(len(found) == 1 for found in sites.values()), sites
    assert config._SPLIT["train_fraction"][0] is config.number
    assert config._SWEEP["repeats"][0] is config.integer
