"""Every layer the benchmark tracer wraps still exists in g2pair.

perfbench/tracer.py names its targets as (module, owner class or None,
attribute) and patches them when a traced run starts; a renamed or
deleted target makes `perfbench/run.py --trace 1` fail to install.  The
tracer file is loaded here read-only, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


def test_tracer_has_targets():
    assert len(TARGETS) >= 10
    assert len({(m, o, a) for m, o, a, _, _ in TARGETS}) == len(TARGETS)


@pytest.mark.parametrize(
    "module, owner, attr",
    [t[:3] for t in TARGETS],
    ids=[f"{m}.{o + '.' if o else ''}{a}" for m, o, a, _, _ in TARGETS],
)
def test_target_resolves(module, owner, attr):
    mod = importlib.import_module(f"g2pair.{module}")
    holder = mod if owner is None else getattr(mod, owner)
    assert callable(getattr(holder, attr))
