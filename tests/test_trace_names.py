"""The benchmark's tracer patches package functions by name; each name it
lists must still resolve, or a traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _resolves(module_name: str, attr: str) -> bool:
    home = importlib.import_module(f"loewner.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name, None)
        return cls is not None and meth in vars(cls)
    return callable(getattr(home, attr, None))


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{module_name}.{attr}" for module_name, attr, _ in spans.TRACED
               if not _resolves(module_name, attr)]
    assert not missing, missing
