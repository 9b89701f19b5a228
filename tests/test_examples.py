"""Every shipped example runs: exit 0 and one line of what it shows.

Each script under ``examples/`` runs in its own interpreter with
``PYTHONPATH=src``, as a reader following the README would run it, so a
public-API change that breaks an example fails here rather than unseen.
A new example needs an entry in :data:`EXPECTED`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Per example, text one line of its output must contain.
EXPECTED = {
    "declaration_language.py": "1. conn.getInputStream()",
    "drawing_layout.py": "1. panel.getLayout()",
    "prover_comparison.py": "cap=  50: 662 hypotheses -> succinct",
    "quickstart.py": "1. new SequenceInputStream(body, body)",
    "scala_collections.py": "3. names.reverse()",
    "semantic_synthesis.py": "f(True, 7) = 14",
    "sequence_of_streams.py": "1. new SequenceInputStream(body, body)",
    "table2_row.py": "benchmark #44: SequenceInputStreamInputStreams",
    "tree_filter.py": "1. new FilterTypeTreeTraverser(x1 => p(x1))",
}

#: Examples that take more than a few seconds (three prover runs each of
#: three environment sizes, the inverse method timing out at 5 s).
SLOW = {"prover_comparison.py"}


@pytest.mark.parametrize("script", [
    pytest.param(path, id=path.name,
                 marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in EXAMPLES])
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                               env=env, capture_output=True, text=True,
                               timeout=300)
    assert completed.returncode == 0, completed.stderr
    expected = EXPECTED[script.name]
    assert any(expected in line for line in completed.stdout.splitlines()), \
        completed.stdout
