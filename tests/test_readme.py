"""README.md's Python blocks run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    entropy = namespace["degree_two"](namespace["psi1"], namespace["psi2"]).entropy
    # the value the README's last comment shows
    assert str(entropy).startswith("0.7956")
    assert capsys.readouterr().out.splitlines()[-1] == str(entropy)
