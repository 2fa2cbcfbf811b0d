"""Shared helpers for the table/figure benches."""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Meta categories in paper order.
METAS = ["CAT_1", "CAT_2", "CAT_3"]

#: Model display order used by every table (GraphEx last, as in Table III).
MODEL_ORDER = ["fastText", "SL-emb", "SL-query", "Graphite", "RE", "GraphEx"]


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a rendered artifact and persist it under results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
