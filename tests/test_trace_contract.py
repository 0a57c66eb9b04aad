"""Every call site the benchmark tracer wraps must exist in the package.

`perfbench/spans.py` wraps functions at the module attribute their caller
looks them up by; a refactor that renames or drops one of those names
makes `perfbench/run.py --trace 1` fail.  This check catches it first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
