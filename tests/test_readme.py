"""The README's library example runs as written against the bundled files."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_library_snippet_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})
    net_profit, attributable = map(float, capsys.readouterr().out.split())
    assert attributable != 0.0 and net_profit != 0.0
