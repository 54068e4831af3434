"""The README's Python examples run as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run_in_order():
    # the examples build on one another, so they run in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["cert"].residual <= 1e-8
    assert namespace["res"].report.stationarity_residual <= 1e-4
    np.testing.assert_allclose(namespace["res"].x, [1.0], atol=1e-3)
    # the last example resolves OuterParams from the problem's modulus
    assert "params.resolved(conic.base.mu).rho0" in blocks[-1]
    assert namespace["params"].resolved(namespace["conic"].base.mu).rho0 == 10.0
