"""Replay the golden CLI corpus through ``cli.main``.

``tests/golden/corpus.json`` records every case's exit code, the sha256 of
its stdout and its stderr; ``tests/golden/generate.py`` writes it and says
how each class of case is compared.  A change that means to alter a
document regenerates the corpus with that script and says which cases
changed and why.
"""

import importlib.util
import platform
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent / "golden" / "generate.py"
_spec = importlib.util.spec_from_file_location("golden_generate", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_golden_corpus_replays():
    corpus = golden.load()
    assert corpus["number_tol"] == golden.NUMBER_TOL
    same_python = golden._minor(platform.python_version()) == golden._minor(corpus["platform"]["python"])
    failures = []
    for case in corpus["cases"]:
        replayed = golden.run_case(case)
        for problem in golden.compare(case, case["outcome"], replayed, same_python):
            failures.append(f"{case['name']}: {problem}")
    assert not failures, failures
    assert len(corpus["cases"]) == len(golden.build_cases())
