"""Every perfbench trace target names a function the package still has."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_target_resolves():
    # load spans.py by path and resolve each target as Tracer.install
    # does, without installing any wrapper
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, module, qualname, _ in spans.TARGETS:
        *owners, attr = qualname.split(".")
        owner = importlib.import_module(f"localzeta.{module}")
        for part in owners:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module}.{qualname}")
    assert missing == []
