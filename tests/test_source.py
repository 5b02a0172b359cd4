"""The Python sources keep to the project's line width."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 100


def test_no_python_line_is_wider_than_the_limit():
    wide = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for folder in ("src", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert wide == []
