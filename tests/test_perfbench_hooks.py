"""The benchmark's tracer wraps distboost's public names; a rename must fail here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

from distboost import losses  # noqa: E402


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


def test_tracer_wraps_the_four_methods_of_every_registered_loss():
    # the tracer wraps only methods defined in a direct subclass of Loss itself
    t = tracer.Tracer()
    t.install()
    try:
        patched = {(owner, attr) for owner, attr, _ in t._patches}
    finally:
        t.uninstall()
    for cls, _ in losses._REGISTRY.values():
        for method in ("value", "grad", "hess", "mle_init"):
            assert (cls, method) in patched, f"{cls.__name__}.{method}"


def test_selftest_passes():
    # tiny runs of every workload: model bytes repeat across iterations and
    # quotes equal the `cli predict` rows bitwise, among the harness's checks
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
