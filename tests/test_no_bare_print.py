"""Repository hygiene: no bare ``print(`` diagnostics inside the library.

Library code must report through the ``repro.obs`` logging bridge (so that
``-v``/``-q`` control verbosity uniformly) or return strings for a renderer
to display.  Bare prints are allowed only in the user-facing entry points
below, which *are* the renderers, plus the socket worker whose stdout
carries its ready/fatal announce line.  CI enforces the same rule via ruff's flake8-print
(T201) with matching per-file ignores; this test keeps the gate alive in
environments without ruff.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Paths (relative to src/repro) where print() is the intended output channel.
ALLOWED = {
    "cli.py",  # CLI renderer: stdout is the product
    "apst/console.py",  # interactive console renderer
    "analysis/lint/cli.py",  # lint reporter: stdout is the product
    "net/worker.py",  # socket worker: stdout carries the ready/fatal announce line
    "workloads/video_callback.py",  # standalone callback script (stderr usage)
}

# A call to the print builtin: start-of-line or preceded by a non-attribute
# character, so ``self.stdout.print(...)`` or ``pprint(`` do not match.
_BARE_PRINT = re.compile(r"(?:^|[^.\w])print\(")


def _offending_lines(path: Path) -> list[int]:
    hits = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        code = line.split("#", 1)[0]
        if _BARE_PRINT.search(code):
            hits.append(lineno)
    return hits


def test_no_bare_print_outside_renderers():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in ALLOWED:
            continue
        lines = _offending_lines(path)
        if lines:
            offenders[rel] = lines
    assert not offenders, (
        "bare print() in library code -- use the repro.obs logging bridge "
        f"(get_logger) instead: {offenders}"
    )


def test_allowlist_entries_exist():
    # Keep the allowlist honest: drop entries when the file goes away.
    for rel in ALLOWED:
        assert (SRC / rel).is_file(), f"stale allowlist entry: {rel}"
