"""No module under ``src/repro`` instruments by rebinding methods.

Tools observe the simulator only through the probe points of
``repro.uarch.probe``.  Replacing a method on an instance instead needs
a ``# type: ignore[method-assign]`` marker, and replacing a callback
the core prebinds needs a registry of those attribute names that spin
fast-forward and every wrap site must keep in step.  This static check
keeps both out of the source tree.
"""

import pathlib
import re

import repro

SOURCES = sorted(pathlib.Path(repro.__file__).parent.rglob("*.py"))

#: A module-level tuple/list of callback attribute names (``_FOO_CALLBACKS = ...``).
CALLBACK_REGISTRY = re.compile(r"^_\w*CALLBACKS\s*(:[^=]*)?=", re.MULTILINE)


def test_sources_found():
    assert len(SOURCES) > 25


def test_no_method_assign_marker():
    offenders = [
        str(path) for path in SOURCES if "method-assign" in path.read_text()
    ]
    assert offenders == []


def test_no_prebound_callback_registry():
    offenders = [
        str(path)
        for path in SOURCES
        if CALLBACK_REGISTRY.search(path.read_text())
    ]
    assert offenders == []
