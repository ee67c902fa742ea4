"""The Picard driver of both solvers, its per-iteration report and the one CSV writer."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MaxIterExceededError, NonFiniteError, ParatorusError


def fmt(x) -> str:
    """Serialize a float with 17 significant digits (bit-faithful round trip)."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int,)):
        return str(x)
    return format(float(x), ".17g")


def write_rows_csv(path, columns, rows, summary, row_kind: str) -> None:
    """Write a header, one `row_kind` line per row and one summary line.

    rows are dicts keyed by the column names; a column that a row lacks is an
    empty cell. summary is a sequence of (key, value) pairs, written as
    key=value cells in the given order.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    lines = [["row_kind"] + list(columns)]
    lines += [[row_kind] + [fmt(row.get(c, "")) for c in columns] for row in rows]
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

    @property
    def iterations(self) -> int:
        return len(self.rows)

    def last(self, column):
        return self.rows[-1][column] if self.rows else None

    def write_csv(self, path) -> None:
        """Iteration rows, then status and the sorted extras in the summary."""
        summary = [("status", self.status)] + sorted(self.extras.items())
        write_rows_csv(path, self.columns, self.rows, summary, "iter")


_FAILED_STATUS = {MaxIterExceededError: "max_iter_exceeded", NonFiniteError: "non_finite"}


def picard(step, state, columns, max_iter: int):
    """Plain Picard iteration state <- step(state); returns (last state, report).

    step(state) returns (next_state, row, done): row maps every column but
    `iter` to its value at the new iterate, and done is the solver's own stop
    test, the name of the stop rule that fired (summary key stop_rule) or None.
    The driver numbers the rows from 1, stops at once when a row's
    increment_hs or residual_sup is not finite (NonFiniteError) and after
    max_iter steps without done (MaxIterExceededError). Every solver error
    leaves with the partial report attached, its status max_iter_exceeded,
    non_finite or failed. A max_iter below 1 is a ValueError before any step.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    t0 = time.perf_counter()
    report = SolveReport(columns=list(columns))
    try:
        for it in range(1, max_iter + 1):
            state, row, done = step(state)
            report.rows.append({"iter": it, **row})
            for c in ("increment_hs", "residual_sup"):
                if not math.isfinite(row[c]):
                    raise NonFiniteError(f"{c} is {row[c]} at iteration {it}")
            if done:
                break
        else:
            raise MaxIterExceededError(
                f"no convergence in {max_iter} iterations "
                f"(last increment {report.last('increment_hs'):.3e})"
            )
    except ParatorusError as exc:
        report.status = _FAILED_STATUS.get(type(exc), "failed")
        exc.report = report
        raise
    finally:
        report.wall_time = time.perf_counter() - t0
    report.status = "converged"
    report.extras["residual_sup"] = report.last("residual_sup")
    report.extras["stop_rule"] = done
    return state, report
