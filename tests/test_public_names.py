"""Every public function or class of the package has a caller outside the tests.

A public name that only tests call promises behaviour the pipeline never
runs. The scan reads `src/`, `perfbench/` and `microbench/` with `ast`:
a name counts as used where it appears as a name, an attribute or an
imported name, so a name inside a docstring or comment does not count.
Package entry points that no code in those trees calls are listed in
ENTRY_POINTS, and a name leaves that list once such code calls it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "patchvote"
CALLER_TREES = ("src", "perfbench", "microbench")

ENTRY_POINTS = frozenset({
    # the experiment runners
    "run_retrieval_experiment",
    "run_pose_experiment",
    # the shape metric, for the held-out F-score still to be reported
    "mesh_fscore",
    # artifact readers and writers the robustness checks cover
    "pack_pose_section",
    "unpack_pose_section",
    "save_viewset",
    "load_viewset",
    "save_benchmark",
    "load_benchmark",
})


def public_definitions() -> dict[str, str]:
    """Module-level public functions and classes, name -> module."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defs[node.name] = path.stem
    return defs


def referenced_names() -> set[str]:
    names = set()
    for tree in CALLER_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    defs = public_definitions()
    used = referenced_names()
    unused = sorted(
        f"{module}.{name}"
        for name, module in defs.items()
        if name not in used and name not in ENTRY_POINTS
    )
    assert unused == [], f"public names no package code uses: {unused}"


def test_entry_points_are_defined():
    missing = sorted(ENTRY_POINTS - set(public_definitions()))
    assert missing == [], f"allowlisted names not defined: {missing}"


def test_entry_points_have_no_caller():
    called = sorted(ENTRY_POINTS & referenced_names())
    assert called == [], f"allowlisted names that package code uses: {called}"
