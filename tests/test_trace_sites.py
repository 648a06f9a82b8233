"""The benchmark's traced run wraps names of the package; each must still exist.

``perfbench/selftest.py`` finds a renamed or deleted name too, but only after
minutes of runs; this finds it at once.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = load_tracing()
    assert tracing.SITES
    for module, cls, attr, _ in tracing.SITES:
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr)), f"{module}.{cls or ''}.{attr}"
