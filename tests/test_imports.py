import ast
import re
import types
from pathlib import Path

import pytest

import inflap

MODULES = sorted(path for path in Path(inflap.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")   # __init__.py only re-exports

# the user API; the steps inside a solve or an estimate stay in their modules
PUBLIC = {
    "build_initial_mesh", "refine", "uniform_refine", "fixed_point_solve", "estimate", "mark",
    "transfer",
    "registry", "convergence_study", "adaptive_solve", "write_csv", "write_vtu",
    "l2_error", "h1_semi_error",
    "Triangulation", "FEFunction", "ProblemData", "SolverConfig", "SolveReport",
    "AdaptiveConfig", "AdaptiveHistory", "EOCTable", "IndicatorField", "BenchmarkProblem",
    "DivergenceError", "EvaluationError", "InvalidArgumentError", "SolverFailure",
}


def test_the_package_exports_only_the_user_api():
    exported = {name for name, value in vars(inflap).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


def test_readme_library_use_calls_only_exported_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    used = set(re.findall(r"\bil\.(\w+)", section))
    assert used and used <= PUBLIC, used - PUBLIC


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_walk_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom .x import a, b\n"
                          "np.zeros(a)\n") == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# each module may import only the modules before it
LAYERS = ["errors", "mesh", "fespace", "hessian", "estimator", "solver", "adapt", "bench", "cli"]


def package_imports(source: str) -> set[str]:
    """The ``inflap`` modules a module imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "inflap" and not name.startswith("inflap."):
                    continue
                name = name.removeprefix("inflap").removeprefix(".")
            found.update([name] if name else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("inflap.") for alias in node.names
                         if alias.name.startswith("inflap."))
    return found


def test_the_walk_finds_package_imports():
    assert package_imports("import os\nimport inflap.mesh\nfrom .solver import a\n"
                           "from inflap.adapt import b\nfrom . import cli\n"
                           "from inflap import bench\nfrom numpy import linalg\n") == \
        {"mesh", "solver", "adapt", "cli", "bench"}


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in MODULES) == sorted(LAYERS)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_imports_only_lower_layers(path):
    below = set(LAYERS[:LAYERS.index(path.stem)])
    assert package_imports(path.read_text()) <= below


def unread_attributes(sources: list[str], class_name: str) -> list[str]:
    """Fields a class declares or assigns on ``self`` that no code outside the class reads.

    A dataclass declares its fields as the annotated names of its class body.
    """
    assigned, read = set(), set()
    for tree in map(ast.parse, sources):
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                assigned.update(stmt.target.id for stmt in node.body
                                if isinstance(stmt, ast.AnnAssign)
                                and isinstance(stmt.target, ast.Name))
                for sub in ast.walk(node):
                    inside.add(id(sub))
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        assigned.add(sub.attr)
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load) and id(node) not in inside)
    return sorted(assigned - read)


def test_the_walk_finds_an_unread_attribute():
    source = ("class Mesh:\n    def __init__(self):\n        self.a = self.b = 1\n"
              "        self.c = self.a\n\n"
              "def area(mesh):\n    return mesh.b\n")
    assert unread_attributes([source, "x = y.a.b\n"], "Mesh") == ["c"]
    assert unread_attributes([source], "Mesh") == ["a", "c"]


def test_the_walk_finds_an_unread_dataclass_field():
    source = ("@dataclass\nclass Report:\n    a: int\n    b: float = 0.0\n"
              "    c = 1\n\n    def double(self):\n        return 2 * self.b\n\n"
              "def first(report):\n    return report.a\n")
    assert unread_attributes([source], "Report") == ["b"]
    frozen = "@dataclass(frozen=True)\nclass Rule:\n    order: int\n"
    assert dataclass_names([source, frozen, "class Plain:\n    pass\n"]) == ["Report", "Rule"]


def dataclass_names(sources: list[str]) -> list[str]:
    """The classes the sources decorate with ``dataclass`` or ``dataclass(...)``."""
    return [node.name for tree in map(ast.parse, sources) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(decorator).startswith("dataclass")
                for decorator in node.decorator_list)]


SOURCES = [path.read_text() for path in MODULES]
# write_csv reads the fields of the CSV rows through dataclasses.fields()
DATA_TYPES = sorted({*dataclass_names(SOURCES), "Triangulation", "FEFunction", "StepFactor"}
                    - {"EOCRow", "CycleRecord"})


@pytest.mark.parametrize("class_name", DATA_TYPES)
def test_the_package_reads_every_field(class_name):
    # API that only the tests use is deleted
    assert unread_attributes(SOURCES, class_name) == []
