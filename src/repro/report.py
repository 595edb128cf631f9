"""ASCII tables and bar charts for the experiment harnesses, and the
Markdown headline table.

Every benchmark prints its table/figure through these helpers so the
regenerated experiments look uniform (and diff cleanly run-to-run).
"""

from __future__ import annotations

from typing import (Callable, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from .stats import (arithmetic_mean, communicates, geomean,
                    relative_communication)

TECHNIQUES = ("gremio", "dswp")


def headline(names: Sequence[str],
             cell: Callable[[str, str, bool], Mapping[str, float]]) -> str:
    """The headline result table as Markdown, one row per workload:
    GREMIO's and DSWP's speedups without and with COCO, COCO's dynamic
    communication relative to baseline MTCG, and the baseline's
    communication share; then the geomean speedups and the mean relative
    communication.  A workload whose baseline code does not communicate
    has no relative communication (—) and stays out of the mean, as in
    the Figure 7 spec.  ``cell(name, technique, coco)`` returns an
    evaluated cell's ``metrics``."""
    configs = [(technique, coco) for technique in TECHNIQUES
               for coco in (False, True)]
    speedups: List[List[float]] = [[] for _ in configs]
    relcomm: List[List[float]] = [[] for _ in TECHNIQUES]
    rows = [["benchmark", "GREMIO", "GREMIO+COCO", "DSWP", "DSWP+COCO",
             "relcomm G", "relcomm D", "comm% G", "comm% D"],
            ["---"] * 9]
    for name in names:
        row = [name]
        for values, config in zip(speedups, configs):
            values.append(cell(name, *config)["speedup"])
            row.append("%.3f" % values[-1])
        shares = []
        for values, technique in zip(relcomm, TECHNIQUES):
            base = cell(name, technique, False)
            shares.append("%.1f%%" % (100.0 * base["communication_fraction"]))
            if not communicates(base):
                row.append("—")
                continue
            values.append(relative_communication(
                cell(name, technique, True), base))
            row.append("%.1f%%" % values[-1])
        rows.append(row + shares)
    rows.append(["**geomean / mean**"]
                + ["**%.3f**" % geomean(values) for values in speedups]
                + ["**%.1f%%**" % arithmetic_mean(values)
                   for values in relcomm]
                + ["", ""])
    return "\n".join("| %s |" % " | ".join(row) for row in rows)


def table(headers: Sequence[str], rows: Iterable[Sequence[object]],
          title: str = "") -> str:
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def bar_chart(rows: Iterable[Tuple[str, float]], title: str = "",
              width: int = 46, unit: str = "",
              reference: Optional[float] = None) -> str:
    """Horizontal bar chart.  Bars scale to the maximum value (or to
    ``reference`` when given, e.g. 100 for percentages)."""
    rows = list(rows)
    if not rows:
        return title
    peak = reference if reference else max(value for _, value in rows)
    peak = max(peak, 1e-12)
    label_width = max(len(label) for label, _ in rows)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in rows:
        filled = int(round(width * min(value, peak) / peak))
        bar = "#" * filled
        lines.append("%-*s | %-*s %8.2f%s"
                     % (label_width, label, width, bar, value, unit))
    return "\n".join(lines)


def grouped_bar_chart(rows: Iterable[Tuple[str, Sequence[float]]],
                      series: Sequence[str], title: str = "",
                      width: int = 40, unit: str = "") -> str:
    """One bar per (row, series) pair, grouped by row label."""
    rows = list(rows)
    flattened: List[Tuple[str, float]] = []
    for label, values in rows:
        for name, value in zip(series, values):
            flattened.append(("%s [%s]" % (label, name), value))
    return bar_chart(flattened, title=title, width=width, unit=unit)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return "%.2f" % cell
    return str(cell)
