"""The README's examples run as written, so an API change cannot leave them stale."""

import os
import re


def test_readme_library_example_runs():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "README.md")
    with open(path) as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (Library)", "exec"), {})
