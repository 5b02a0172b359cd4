"""The README's python snippets and its command block run as written, and
its key lists are the code's."""

import re
import shlex
from pathlib import Path

from pricelab.cli import main
from pricelab.config import MODEL_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks, "README has no python block"
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), {})


def test_readme_command_block_runs(tmp_path, monkeypatch):
    """Each line of the block of ``pricelab`` commands exits 0 when run in
    order in an empty directory, through ``cli.main``; a ``printf '...' > f``
    line writes ``f`` as printf would."""
    blocks = re.findall(r"^```\w*\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    [block] = [b for b in blocks if all(line.startswith(("pricelab ", "printf "))
                                        for line in b.splitlines())]
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        command, *args = shlex.split(line)
        if command == "printf":
            text, redirect, target = args
            assert redirect == ">", line
            Path(target).write_text(text.replace("\\n", "\n"))
        else:
            assert main(args) == 0, line


def test_readme_model_keys_are_the_config_model_keys():
    """The backticked keys of the README's ``Model keys:`` sentence, up to
    its closing ``.``, are exactly ``config.MODEL_KEYS``."""
    sentence = re.search(r"Model keys:(.*?`)\.\s", README.read_text(encoding="utf-8"), re.S)
    assert sentence, "README has no 'Model keys:' sentence"
    assert set(re.findall(r"`(\w+)`", sentence.group(1))) == MODEL_KEYS
