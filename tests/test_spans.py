"""The benchmark's tracer (perfbench/spans.py) still finds every name it wraps.

A traced benchmark run dies on a renamed or deleted function, so every name in
its SPANS and COUNTS tables must resolve, and Tracing must put back every
original it replaced.  The module is loaded read-only: no bytecode is written
next to it.
"""

import importlib.util
import sys
from pathlib import Path

from groupvna import characters, construct_group, dichotomy

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


spans = _load_spans()


def _traced_names():
    names = [(owner, attr) for owner, attr, *_ in spans.SPANS]
    names += [(owner, attr) for owner, attrs, _ in spans.COUNTS for attr in attrs]
    return names + [(dichotomy, "find_noncommuting_pair")]


def _bindings():
    """Every name Tracing may rebind: module globals of groupvna and the traced names."""
    out = {(id(mod), key): value for mod in spans._program_modules()
           for key, value in vars(mod).items()}
    out.update({(id(owner), attr): getattr(owner, attr) for owner, attr in _traced_names()})
    return out


def test_every_traced_name_resolves():
    for owner, attr in _traced_names():
        assert callable(getattr(owner, attr, None)), (owner, attr)


def test_tracing_wraps_and_then_restores_every_original():
    before = _bindings()
    rec = spans.Recorder()
    with spans.Tracing(rec):
        for owner, attr in _traced_names():
            assert getattr(owner, attr) is not before[(id(owner), attr)], (owner, attr)
        characters.class_data(construct_group({"family": "symmetric", "n": 3}))
    assert "characters.class_data" in {span[0] for span in rec.spans}
    assert rec.counts["characters.classes"] == 3
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
