import os
import re
import subprocess
import sys

import csdpp
from csdpp.stream import planted_subspace_stream, serialize_sparse_labels
from csdpp.verify import MUTANTS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_snippets() -> list[str]:
    """The python blocks of the README's "Library use" section, in order."""
    text = open(README, encoding="utf-8").read()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_snippets_run_in_order(tmp_path):
    snippets = library_snippets()
    assert len(snippets) >= 3  # the first use, the snapshot and the Lockstep snippets at least
    insts = planted_subspace_stream(8, 6, 40, seed=3, n_prototypes=3)
    (tmp_path / "data.txt").write_text(serialize_sparse_labels(insts, 8, 6), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(csdpp.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # a fresh process, so the costs the snippets register stay out of this one
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(snippets)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_section_tables_every_mutant():
    text = open(README, encoding="utf-8").read()
    section = text.split("\n### csdpp verify\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` +\| `([a-z0-9]+)` +\| `?([a-z<>-]*)`? +\| ([a-z, ]*?) *\|$", section, re.M)
    tabled = {name: (suite, check or None, set(filter(None, blind.split(", ")))) for name, suite, check, blind in rows}
    assert tabled == {
        name: (m.suite, m.breaks and m.breaks.replace("{cost}", "<cost>"), set(m.blind)) for name, m in MUTANTS.items()
    }
