"""Rules on the package source itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import cubequot

SRC = Path(cubequot.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert; library invariants must be explicit checks
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_string_popcounts_in_package():
    # bin(x).count("1") builds a string per call; int.bit_count is the one popcount
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "count"
            and [ast.dump(a) for a in node.args] == [ast.dump(ast.Constant("1"))]
        ]
    assert found == []


def test_trace_targets_resolve_in_package():
    # the traced benchmark run wraps these names in place; a renamed or moved
    # function would break only that run, so check them here without importing it
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"), filename=str(tracing))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    )
    assert targets
    missing = []
    for name, module, attr in targets:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in getattr(getattr(mod, cls_name, None), "__dict__", {})
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{name}: {module}.{attr}")
    assert missing == []


def test_iso_aut_builds_no_schreier_sims_chain():
    # automorphism_group reads |Aut(G)| off its own search's first path;
    # the chain stays in perm_groups for the normalizer and as a test oracle
    path = SRC / "iso_aut.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported & {"group_from_generators", "PermutationGroup"} == set()


def module_level_nodes(tree):
    """Every node that runs when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_numpy_at_module_level():
    # numpy costs about half of a fresh `import cubequot`; functions import it on first use
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in module_level_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_import_cubequot_loads_no_numpy():
    src = str(SRC.resolve().parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cubequot.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def nodes_by_scope(tree):
    """(qualified function or class, node) for every node of a module."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, f"{scope}.{child.name}".lstrip(".")))
                continue
            yield scope, child
            stack.append((child, scope))


def names_by_scope(tree):
    """(qualified function or class, name) for every name a module reads."""
    for scope, node in nodes_by_scope(tree):
        if isinstance(node, ast.Name):
            yield scope, node.id
        elif isinstance(node, ast.Attribute):
            yield scope, node.attr


def test_element_lists_are_built_only_in_cube_group_elements():
    # a group is its generators' Schreier walk and its element list is the
    # walk's cosets; no breadth-first key closure is left in the package. The
    # unchecked view constructor is named where a list of views is built
    # (CubeGroup.elements) and where one element is made from valid ones
    views, closures = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, name in names_by_scope(tree):
            if name == "_from_key":
                views.add((path.name, scope))
            elif name == "_close":
                closures.add((path.name, scope))
    assert closures == set()
    assert views == {
        ("cube_symmetry.py", "CubeAutomorphism.compose"),
        ("cube_symmetry.py", "CubeAutomorphism.inverse"),
        ("cube_symmetry.py", "CubeGroup.elements"),
        ("verify.py", "random_involution"),
    }


def test_signed_coordinate_schreier_sims_stays_in_cube_symmetry():
    # a group is its Schreier walk; the signed-coordinate chain behind
    # _GroupBuilder serves only the normalizer and the even part
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]
        for name in [name for _, name in names_by_scope(tree)] + imported:
            if name in ("_GroupBuilder", "_monomial_perm"):
                found.add(path.name)
    assert found == {"cube_symmetry.py"}


def test_adjacency_masks_are_read_only_by_their_view():
    # a graph's adjacency is its neighbour table; the bit masks of `adj` are
    # a view for outside readers, and no algorithm in the package reads them
    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, node in nodes_by_scope(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("adj", "_adj"):
                readers.add((path.name, scope))
    assert readers == {("graph_core.py", "SimpleGraph.adj")}


def test_no_package_code_calls_bfs_level_masks():
    # the single-start mask view stays for the traced benchmark run, which
    # wraps it by name; searches run the table kernel `bfs_levels`
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers |= {
            (path.name, scope)
            for scope, name in names_by_scope(tree)
            if name == "bfs_level_masks"
        }
    assert callers == set()


def test_claim_reports_are_built_only_by_the_registry_and_report():
    # a claim's check returns its outcome, parameters and witnesses, and the
    # registry's runner names the report; the exported check_* functions
    # build theirs through _report
    path = SRC / "verify.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    builders = {
        scope
        for scope, node in nodes_by_scope(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ClaimReport"
    }
    assert builders == {"_claim.wrap.runner", "_report"}


def test_each_claim_id_is_written_only_where_it_is_registered():
    # outside its _claim(...) registration a claim id is written only in the
    # one exported check_* function that reports under it
    path = SRC / "verify.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    registrations = [
        node.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_claim"
    ]
    ids = [arg.value for arg in registrations]
    assert len(ids) == len(set(ids)) == 24
    registered = {id(arg) for arg in registrations}
    uses = [
        (scope, node.value)
        for scope, node in nodes_by_scope(tree)
        if isinstance(node, ast.Constant) and node.value in ids and id(node) not in registered
    ]
    assert [use for use in uses if not use[0].startswith("check_")] == []
    assert len(uses) == len({cid for _, cid in uses}) == len({scope for scope, _ in uses})
