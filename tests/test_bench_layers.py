"""The benchmark's hold on the library: wrapped names and the in-process workloads.

`bench/run.py --trace 1` rebinds every `(module, attr)` in `bench/layers.py`'s
`WRAPPED`. Renaming or deleting one of those functions would only show up in
a traced bench run, so this test reads the list and checks each name here.
The in-process workloads in `bench/workloads.py` also call the library's
constructors and read result fields (`bit_budget(...).payload_bits`,
`CaptureConfig(layer_mode=...)`, `label_components(c).count`, `SliceSpec(...)`);
one setup and two operations of each must pass the workload's own check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WRAPPED = _load("layers").WRAPPED


def test_wrapped_list_is_not_empty():
    assert len(WRAPPED) > 0


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _, _ in WRAPPED], ids=lambda x: getattr(x, "__name__", x)
)
def test_wrapped_name_resolves_to_a_callable(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"


@pytest.mark.parametrize("name", ["plan-suite", "bulk-codec", "loss-report"])
def test_in_process_workload_runs_and_checks(name, tmp_path):
    workload = _load("workloads").make(name, tmp_path)
    state = workload.setup(1)
    first = workload.operate(state)
    second = workload.operate(state)
    assert workload.check(state, second, first) == []
