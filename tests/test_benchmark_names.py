"""Every layer function the benchmark traces by name still exists.

perfbench/run.py looks each per-layer metric of BENCHMARK.json up by its
name, so deleting or renaming a public function that a metric names would
make a traced benchmark run fail with a KeyError.
"""
import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_names_are_public_callables():
    names = {
        metric["name"].rsplit(".", 1)[0]
        for metric in json.loads(BENCHMARK.read_text())["per_layer"]
        if metric["name"].count(".") == 2  # <layer>.<attr>.<stat>
    }
    assert names
    missing = []
    for name in sorted(names):
        layer, attr = name.split(".")
        module = importlib.import_module(f"framecoh.{layer}")
        obj = getattr(module, attr, None)
        public = (
            not attr.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        )
        if not public:
            missing.append(f"framecoh.{name}")
    assert not missing, f"traced by BENCHMARK.json but not public: {missing}"
