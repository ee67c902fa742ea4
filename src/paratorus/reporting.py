"""Per-iteration solver diagnostics and the one CSV writer of every run."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


def fmt(x) -> str:
    """Serialize a float with 17 significant digits (bit-faithful round trip)."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int,)):
        return str(x)
    return format(float(x), ".17g")


def write_rows_csv(path, columns, rows, summary, row_kind: str) -> None:
    """Write a header, one `row_kind` line per row and one summary line.

    rows are dicts keyed by the column names; summary is a sequence of
    (key, value) pairs, written as key=value cells in the given order.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    lines = [["row_kind"] + list(columns)]
    lines += [[row_kind] + [fmt(row[c]) for c in columns] for row in rows]
    lines.append(["summary"] + [f"{k}={fmt(v)}" for k, v in summary])
    with open(path, "w") as fh:
        fh.write("".join(",".join(cells) + "\n" for cells in lines))


@dataclass
class SolveReport:
    """Ordered per-iteration rows plus a terminal summary.

    Rows are dicts sharing the column list `columns`; `extras` holds terminal
    scalars (certificates, norms, certified gamma). Wall time is kept out of
    the data rows so identical configs serialize bit-identically.
    """

    columns: list
    rows: list = field(default_factory=list)
    status: str = "pending"
    extras: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def add_row(self, **kwargs) -> None:
        row = {c: kwargs.get(c, "") for c in self.columns}
        self.rows.append(row)

    @property
    def iterations(self) -> int:
        return len(self.rows)

    def last(self, column):
        return self.rows[-1][column] if self.rows else None

    def write_csv(self, path) -> None:
        """Iteration rows, then status and the sorted extras in the summary."""
        summary = [("status", self.status)] + sorted(self.extras.items())
        write_rows_csv(path, self.columns, self.rows, summary, "iter")
