"""The benchmark tracer finds every venlab function it wraps.

``perfbench/tracer.py`` looks its targets up by module and name in every
benchmark worker; a rename in ``src/`` that breaks a lookup fails here.
"""

import importlib.util
import pathlib
import sys

import venlab.cli  # noqa: F401  (imports every traced module)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    sites = tracer.binding_sites()
    assert [target for target, _, _ in sites] == list(tracer.TARGETS)
    for target, places, _ in sites:
        assert places, "%s.%s is bound nowhere" % (target.module, target.name)
