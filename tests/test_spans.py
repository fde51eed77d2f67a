"""The benchmark's span wrappers (``perfbench/spans.py``) install on the
library as it stands and come off again: every name in ``spans.TARGETS``
must still resolve, or a traced run (``perfbench/run.py --trace 1``) crashes
at start-up."""

import importlib
import importlib.util
from pathlib import Path

import adjvar

_PATH = Path(__file__).parent.parent / "perfbench" / "spans.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_spans", _PATH)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def _owner(module_name, path):
    """(object holding the attribute, attribute name) of one target."""
    home = importlib.import_module("adjvar." + module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(home)[cls_name], attr
    return home, path


def test_every_span_target_installs_and_comes_off():
    targets = [path for _, path, _, _ in spans.TARGETS]
    owners = [_owner(module_name, path) for module_name, path, _, _ in spans.TARGETS]
    originals = [vars(owner)[attr] for owner, attr in owners]
    modules = [importlib.import_module("adjvar." + m) for m in spans.MODULES] + [adjvar]
    before = [dict(vars(m)) for m in modules]
    installed = spans.Installation(spans.Recorder())
    try:
        for path, (owner, attr), original in zip(targets, owners, originals):
            assert vars(owner)[attr] is not original, f"{path} was not wrapped"
    finally:
        installed.remove()
    for (owner, attr), original in zip(owners, originals):
        assert vars(owner)[attr] is original
    for module, snapshot in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in snapshot.items())
