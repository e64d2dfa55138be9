"""Finding and importing the program under test inside this checkout."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import ``tokenslide`` from this checkout's ``src/`` and refuse any other copy.

    Exits with a message on stderr (code 1) when the sources are missing, so a
    directory holding only the benchmark never produces a result.
    """
    sys.path.insert(0, str(SRC))
    try:
        import tokenslide
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tokenslide from {SRC}: {exc}")
    where = Path(tokenslide.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: tokenslide was imported from {where}, not from {SRC}")
    return tokenslide
