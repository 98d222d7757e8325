"""Result tables: structured rows rendered as markdown, and the helpers
every shape check reads them with.

Every experiment returns a :class:`Table`; its :meth:`Table.render` is
the one renderer, used both by ``repro experiment`` on the terminal and
for the committed EXPERIMENTS.md.  A check maps condition names to
booleans and reports :func:`failed_conditions` of them, so the report's
``does not reproduce: ...`` verdict lists exactly those names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, Union

__all__ = [
    "Table",
    "format_value",
    "FAMILIES",
    "failed_conditions",
    "family_of",
    "by_dataset",
    "pairwise",
    "along_families",
]

Cell = Union[str, int, float, None]

#: The dataset families every experiment reports on, in the paper's order.
FAMILIES = ("news", "twitter")


def format_value(value: Cell, *, precision: int = 3) -> str:
    """Human-friendly cell rendering (SI-ish floats, thousands grouping)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e6 or magnitude < 1e-3:
            return f"{value:.{precision}e}"
        return f"{value:,.{precision}f}".rstrip("0").rstrip(".")
    return str(value)


@dataclass
class Table:
    """A titled grid of results with optional footnotes."""

    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple[Cell, ...]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        """Append one row; must match the header width."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(tuple(cells))

    def add_note(self, note: str) -> None:
        """Append a footnote rendered under the grid."""
        self.notes.append(note)

    def render(self, *, precision: int = 3) -> str:
        """Markdown: bold title, a column-aligned pipe table, notes as bullets."""
        # A literal "|" (|V|, |Q.T|) would split a markdown cell.
        headers = [h.replace("|", "\\|") for h in self.headers]
        formatted = [
            [format_value(c, precision=precision).replace("|", "\\|") for c in row]
            for row in self.rows
        ]
        widths = [
            max([len(h)] + [len(r[i]) for r in formatted])
            for i, h in enumerate(headers)
        ]

        def line(cells) -> str:
            return "| " + " | ".join(c.rjust(w) for c, w in zip(cells, widths)) + " |"

        lines = [f"**{self.title}**", "", line(headers)]
        lines.append("|" + "|".join("-" * (w + 1) + ":" for w in widths) + "|")
        lines.extend(line(row) for row in formatted)
        if self.notes:
            lines.append("")
            lines.extend(f"* {note}" for note in self.notes)
        return "\n".join(lines)

    def column(self, header: str) -> List[Cell]:
        """All values of one column (for the shape checks)."""
        try:
            idx = self.headers.index(header)
        except ValueError:
            raise KeyError(f"no column {header!r} in table {self.title!r}") from None
        return [row[idx] for row in self.rows]

    def __str__(self) -> str:
        return self.render()


def failed_conditions(conditions: Dict[str, bool]) -> List[str]:
    """The names of the conditions that do not hold."""
    return [name for name, held in conditions.items() if not held]


def family_of(dataset_name: object) -> str:
    """``news`` or ``twitter`` from a dataset name such as ``news-400``."""
    return str(dataset_name).split("-")[0]


def by_dataset(table: Table) -> Dict[str, List[tuple]]:
    """Rows grouped by their first (dataset) column, in table order."""
    groups: Dict[str, List[tuple]] = {}
    for row in table.rows:
        groups.setdefault(str(row[0]), []).append(row)
    return groups


def pairwise(table: Table, a: str, b: str, holds: Callable) -> bool:
    """``holds(x, y)`` for every row's values of columns ``a`` and ``b``."""
    return all(holds(x, y) for x, y in zip(table.column(a), table.column(b)))


def along_families(
    table: Table, by: int, value: int, *, grows: bool
) -> Dict[str, bool]:
    """Per family: column ``value`` is higher (``grows``) or lower at the
    largest column ``by`` than at the smallest (so each family needs two
    rows)."""
    conditions = {}
    for family in FAMILIES:
        rows = sorted(
            (r for r in table.rows if family_of(r[0]) == family), key=lambda r: r[by]
        )
        trend = "grows" if grows else "falls"
        name = f"{family}: {table.headers[value]} {trend} as {table.headers[by]} grows"
        conditions[name] = len(rows) > 1 and (
            rows[-1][value] > rows[0][value]
            if grows
            else rows[-1][value] < rows[0][value]
        )
    return conditions
