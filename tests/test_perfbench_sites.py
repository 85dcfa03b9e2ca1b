"""perfbench/tracing.py rebinds library names by getattr/setattr; each one
must still exist, or every traced benchmark run fails."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    missing = [f"{mod.__name__}.{attr}" for mod, attr, *_ in tracing.SITES
               if not callable(getattr(mod, attr, None))]
    assert not missing
