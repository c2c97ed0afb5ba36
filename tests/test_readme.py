import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(capsys):
    # the Library section's code block, run as a reader would paste it
    text = README.read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out
    res = namespace["res"]
    assert printed.startswith("solutions ")
    assert printed.rstrip().endswith("True")
    assert len(res.solutions) == 1
    assert np.max(np.abs(res.solutions[0] - np.array([0.6, 0.8]))) <= 1e-6
