"""The benchmark's tracer patches lpgg from outside the package.

Entering it in process fails when a patch target has been renamed, and
leaving it must put every patched attribute back.
"""
import importlib.util
from pathlib import Path

from lpgg import frames

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, name):
    return owner[name] if isinstance(owner, dict) else owner.__dict__[name]


def test_tracer_patches_its_targets_and_restores_them():
    with load_tracer().Tracer() as tracer:
        patches = list(tracer._patches)
        frames.build_null_frame(3)
        assert tracer.raw["frames.build_calls"] == 1
    assert patches
    for owner, name, original, _ in patches:
        assert current(owner, name) is original, name
