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


def test_either_cases_allow_each_outcome_rounding_can_pick():
    case = next(c for c in golden.load()["cases"] if c.get("either"))
    document = {"exit": 0, "stdout_sha256": "a", "stderr": "", "skeleton_sha256": "b", "numbers_count": 1, "numbers": [0.5]}
    failed = dict(document, exit=3, skeleton_sha256="d")
    # The samples of a validated rho are not judged again, so their refusal
    # is no longer an outcome rounding can pick.
    refusal = {"exit": 3, "stdout_sha256": "c", "stderr": "error: tomogram samples are not a normalized probability family\n"}
    for recorded in (document, failed):
        for replayed in (document, failed):
            assert golden.compare(case, recorded, replayed) == []
        for other in (refusal, dict(refusal, exit=2), dict(refusal, stderr="error: not a physical density matrix\n"), dict(document, exit=2)):
            assert golden.compare(case, recorded, other) != []
