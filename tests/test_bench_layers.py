"""The traced benchmark wraps module attributes by name; each one must still exist.

`bench/run.py --trace 1` rebinds every `(module, attr)` in `bench/layers.py`'s
`WRAPPED`. Renaming or deleting one of those functions would only show up in
a traced bench run, so this test reads the list and checks each name here.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_layers().WRAPPED


def test_wrapped_list_is_not_empty():
    assert len(WRAPPED) > 0


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _, _ in WRAPPED], ids=lambda x: getattr(x, "__name__", x)
)
def test_wrapped_name_resolves_to_a_callable(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"
