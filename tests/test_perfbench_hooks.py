"""The benchmark's tracer wraps distboost's public names; a rename must fail here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_install_then_uninstall_restores_every_original():
    t = tracer.Tracer()
    t.install()
    try:
        patches = list(t._patches)
        assert patches
        for owner, attr, original in patches:
            assert _current(owner, attr) is not original
    finally:
        t.uninstall()
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, f"{owner.__name__}.{attr}"
