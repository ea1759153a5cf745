"""The CLI's stdout, stderr and exit code over the whole argv sweep are byte
for byte those recorded in tests/golden/argv_sweep.sha256, with the lines of
tests/golden/argv_sweep-3.13.sha256 in their place on Python 3.13 and
later."""

from argv_sweep import argvs, recorded_lines, sweep_line


def test_argv_sweep_is_byte_identical(monkeypatch):
    # argparse wraps its text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    recorded = recorded_lines()
    sweep = argvs()
    assert len(recorded) == len(sweep)
    changed = [line for line, argv in zip(recorded, sweep) if sweep_line(argv) != line]
    assert not changed, f"{len(changed)} argvs changed, the first: {changed[0]}"
