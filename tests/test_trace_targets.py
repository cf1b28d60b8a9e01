"""Every layer the benchmark tracer wraps still exists in g2pair.

perfbench/tracer.py names its targets as (module, owner class or None,
attribute) and patches them when a traced run starts; a renamed or
deleted target makes `perfbench/run.py --trace 1` fail to install.  The
tracer file is loaded here read-only, without installing anything.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
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


def test_the_worker_import_loads_the_targets_but_not_the_parser():
    # the tracer reads each target's module from sys.modules right after
    # the benchmark worker's import line; argparse (and gettext with it)
    # waits for the first parse.  A fresh process, since this one has
    # already imported argparse.
    child = "\n".join((
        "import json, sys",
        "sys.path[:] = json.loads(sys.argv[1])",
        "from g2pair import DivisorClass, SchubertRing, WeylGroup, cli, root_system",
        "loaded = sorted(sys.modules)",
        "code = cli.run(['weyl-order', 'G2'])",
        "print(json.dumps([loaded, code, 'argparse' in sys.modules]))",
    ))
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps(sys.path)],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, code, parsed = json.loads(proc.stdout.splitlines()[-1])
    assert "argparse" not in loaded and "gettext" not in loaded
    assert {f"g2pair.{m}" for m, _, _, _, _ in TARGETS} <= set(loaded)
    assert (code, parsed) == (0, True)
