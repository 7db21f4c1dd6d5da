"""The benchmark tracer's bindings against the package, without installing it.

`bench/tracer.py` wraps the functions in its `WRAPPED` list and reads the
`cache_info()` of the lru_caches in its `CACHES` list.  A renamed cache or a
deleted wrapped function shows here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("lieconf_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer, module, qualname", tracer.WRAPPED, ids=str)
def test_every_wrapped_function_is_in_its_own_namespace(layer, module, qualname):
    # install() reads each function from the vars of its module or class.
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert callable(vars(owner).get(attr)), f"{module}.{qualname}"


@pytest.mark.parametrize("module, name", tracer.CACHES, ids=str)
def test_every_cache_has_cache_info(module, name):
    cached = vars(importlib.import_module(module)).get(name)
    assert hasattr(cached, "cache_info"), f"{module}.{name} is not an lru_cache"
    cached.cache_info()
