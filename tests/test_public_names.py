"""Every public function or class of the package has a caller outside the tests.

A public name that only tests call promises behaviour the pipeline never
runs. The scan reads `src/`, `perfbench/` and `microbench/` with `ast`:
a name counts as used where it appears as a name, an attribute or an
imported name, so a name inside a docstring or comment does not count.
The package's `__init__.py` is skipped: a re-export is not a caller.
Package entry points that no code in those trees calls are listed in
ENTRY_POINTS, and a name leaves that list once such code calls it.

Likewise every Config field is read as `cfg.<field>` by some module of
the package other than config.py: a field nothing reads is a knob that
changes no run.
"""

import ast
from dataclasses import fields
from pathlib import Path

from patchvote.config import Config

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "patchvote"
CALLER_TREES = ("src", "perfbench", "microbench")

ENTRY_POINTS = frozenset({
    # the experiment runners
    "run_retrieval_experiment",
    "run_pose_experiment",
    # the shape metric, for the held-out F-score still to be reported
    "mesh_fscore",
    # the config file a user writes and reads
    "save_config",
    "load_config",
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


def referenced_names(root: Path = ROOT) -> set[str]:
    names = set()
    for tree in CALLER_TREES:
        for path in (root / tree).rglob("*.py"):
            if path == root / "src" / "patchvote" / "__init__.py":
                continue
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


def test_reexport_is_not_a_caller(tmp_path):
    pkg = tmp_path / "src" / "patchvote"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .io import planted\n")
    (pkg / "io.py").write_text("def planted():\n    pass\n")
    assert "planted" not in referenced_names(tmp_path)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("from patchvote.io import planted\n")
    assert "planted" in referenced_names(tmp_path)


def config_reads(root: Path = ROOT) -> set[str]:
    """Attributes the package reads as `cfg.<name>`, config.py aside."""
    reads = set()
    for path in (root / "src" / "patchvote").glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cfg"
            ):
                reads.add(node.attr)
    return reads


def test_every_config_field_is_read():
    unread = sorted({f.name for f in fields(Config)} - config_reads())
    assert unread == [], f"Config fields no pipeline stage reads: {unread}"


def test_config_module_is_not_a_reader(tmp_path):
    pkg = tmp_path / "src" / "patchvote"
    pkg.mkdir(parents=True)
    (pkg / "config.py").write_text("def validate(cfg):\n    return cfg.tau\n")
    (pkg / "embed.py").write_text("def loss(cfg, other):\n    return cfg.seed + other.kq\n")
    assert config_reads(tmp_path) == {"seed"}
