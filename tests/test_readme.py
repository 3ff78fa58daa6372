"""The README's library tour runs as written."""

import re
from pathlib import Path

from treesplice.graph import Graph

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    tour = {}
    exec(compile(blocks[0], "README.md", "exec"), tour)
    assert isinstance(tour["u"], Graph) and isinstance(tour["v"], Graph)  # splicers
