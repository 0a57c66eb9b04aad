"""What the repository's tooling names must exist and must be complete.

`perfbench/spans.py` wraps functions at the module attribute their caller
looks them up by; a refactor that renames or drops one of those names
makes `perfbench/run.py --trace 1` fail.  This check catches it first.

CI's `runtime-numpy-only` job and the README's Tests section list the
test modules that run without scipy.  That list is read off the modules'
own imports, so a module that gains or drops scipy moves between the
lists here first.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"
# where a test module's own helpers live: tests/, and perfbench/ for `workloads`
HELPER_DIRS = (ROOT / "tests", ROOT / "perfbench")


def _traced_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(name, module, attr)
            for name, sites in spans.TRACED_CALLS for module, attr in sites]


@pytest.mark.parametrize("name,module,attr", _traced_sites())
def test_traced_site_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"span {name}: {module}.{attr} does not exist"
    )


def _imports(path):
    """Top-level names of the modules `path` imports, at any indentation."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def _needs_scipy(path):
    """`path`, or a helper module it imports, imports scipy."""
    names = _imports(path)
    helpers = [folder / f"{name}.py" for name in sorted(names) for folder in HELPER_DIRS]
    return "scipy" in names or any(_needs_scipy(h) for h in helpers if h.is_file())


def _pytest_lists(text):
    """The test modules on each line of `text` that runs pytest on two or more."""
    lists = [re.findall(r"tests/test_\w+\.py", line)
             for line in text.splitlines() if "pytest" in line]
    return [sorted(modules) for modules in lists if len(modules) > 1]


def test_scipy_free_modules_are_listed_in_ci_and_readme():
    # conftest is imported into every module
    conftest = _needs_scipy(ROOT / "tests" / "conftest.py")
    free = sorted(f"tests/{path.name}" for path in (ROOT / "tests").glob("test_*.py")
                  if not (conftest or _needs_scipy(path)))
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    job = workflow.partition("\n  runtime-numpy-only:\n")[2]
    readme = (ROOT / "README.md").read_text()
    assert _pytest_lists(job) == [free]
    assert _pytest_lists(readme) == [free, free]
