"""The README's library sketch runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(sketch, "README.md", "exec"), {})
    out = capsys.readouterr().out
    for rate in ("rate_nocsi", "rate_upper_bound", "rate_arq"):
        assert rate in out
