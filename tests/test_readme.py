"""The README's library quick tour runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    """The Python block under the "Library quick tour" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_quick_tour_runs():
    exec(compile(quick_tour(), str(README), "exec"), {})
