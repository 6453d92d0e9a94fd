"""The README's python blocks run, in order, in one namespace.

The quick start is the chain of spin-1/2 maps that the benchmark's
half-maps workload times once per state; later blocks reuse its names.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order():
    blocks = _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md, python block {k}", "exec"), namespace)
    # The values that the blocks' comments state.
    st = namespace["st"]
    assert st.check_admissibility(namespace["table"]).passed
    assert np.abs(namespace["rho_back"] - namespace["rho"]).max() < 1e-15
    w = namespace["w"]
    assert w.w_plus + w.w_minus == pytest.approx(1.0, abs=1e-15)
    assert np.abs(namespace["recovered"] - namespace["rho_j"]).max() < 1e-13


def test_readme_counts_the_golden_corpus():
    corpus = json.loads((README.parent / "tests" / "golden" / "corpus.json").read_text())
    stated = re.search(r"records what (\d+) invocations print", README.read_text(encoding="utf-8"))
    assert stated and int(stated.group(1)) == len(corpus["cases"])
