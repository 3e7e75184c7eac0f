"""The names perfbench's tracer wraps must exist in oscint.

`python3 perfbench/run.py --trace 1` resolves every qualname in the
tracer's FUNCTIONS and METHODS lists under the oscint package and reads
each constructed system's omega2.  A rename or deletion in oscint would
break traced runs only; this test makes it fail here instead.  The tracer
is loaded from its file, as the benchmark loads it, and left unchanged.
"""
import importlib.util
from pathlib import Path

import pytest

from oscint.systems import FpuParams, OscillatorySystem, fpu_build

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("qualname", tracer.FUNCTIONS + tracer.METHODS)
def test_traced_name_resolves(qualname):
    owner, attr = tracer._resolve(qualname)
    assert callable(getattr(owner, attr, None)), f"oscint.{qualname} is missing"


def test_systems_expose_the_dense_omega2():
    assert isinstance(OscillatorySystem.__dict__.get("omega2"), property)
    sys_ = fpu_build(FpuParams(ell=3, omega=50.0))
    assert sys_.omega2.nbytes == 36 * 8
