"""Every line of the package is at most 110 characters, so the tracked
source line count cannot fall by packing more onto each line."""
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "selftestsim"
LIMIT = 110


def test_no_source_line_exceeds_the_limit():
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > LIMIT
    ]
    assert long_lines == []
