"""Access to the bundled encoder corpus (*.pne files shipped with the package).
Only ``corpus_path`` loads this module, and with it ``pathlib``."""

from __future__ import annotations

from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


def corpus_files() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.pne"))


def corpus_path(name: str) -> Path:
    path = CORPUS_DIR / name
    if not path.is_file():
        known = ", ".join(p.name for p in corpus_files())
        raise FileNotFoundError(f"no corpus file {name!r} (have: {known})")
    return path
