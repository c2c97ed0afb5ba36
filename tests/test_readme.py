import re
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from polyvi import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_readme_verify_example_is_accepted():
    # the `polyvi verify` line of the fixtures block, run from the repository root
    line = re.search(r"^polyvi verify (\S+) --point (\S+)$", README.read_text(), re.M)
    path, point = line.groups()
    result = CliRunner().invoke(cli.main, ["verify", str(ROOT / path), "--point", point])
    assert result.exit_code == 0, result.output
    assert "verdict          accepted" in result.output
