"""The README's library example runs as written.

The public names it imports and the calls it makes cannot drift from the
package without this test failing. Run as a script, ``python
tests/test_readme.py`` runs the same block against whichever ``spinquench``
the interpreter imports, without pytest.
"""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The one Python block of the README's Library section, verbatim."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def run_library_example():
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})


def test_readme_library_example_runs(capsys):
    run_library_example()
    printed = float(capsys.readouterr().out.split()[-1])  # the revival degree
    assert math.isfinite(printed) and printed >= 0


if __name__ == "__main__":
    run_library_example()
