"""Report rendering: a fixed-layout accuracy table (one column per task
plus tracking and overall averages), a machine-readable JSON document,
and CSV."""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring  # the escaper of ensure_ascii=False
from typing import Iterator

from ..resolution import TSO_TASKS, Task
from .prompts import DISPLAY_NAMES, Paradigm
from .runner import EvalReport

_COLUMN_TASKS = tuple(Task)  # the paper's column order is Task's order
_COLUMN_HEADERS = {t: f"TSO({t.value[3:]})" if t in TSO_TASKS else t.value for t in Task}

# One element of report.json's "records" array after its separator (a newline, with a comma
# before all but the first), as json.dumps(indent=2, sort_keys=True) lays it out at that depth.
_RECORD_ITEM = """\
%s    {
      "correct": %s,
      "dataset": %s,
      "extracted": %s,
      "gold": %s,
      "instance_id": %s,
      "paradigm": %s
    }"""
_NO_RECORDS = '\n  "records": []'
_CELL_FIELDS = ("dataset", "task", "paradigm", "correct", "total", "accuracy_pct")


def format_pct(fraction: float | None) -> str:
    return "-" if fraction is None else f"{fraction * 100:.1f}"


def _cell_rows(report: EvalReport) -> list[dict]:
    """One row per (dataset, paradigm) cell, sorted by both, keyed by ``_CELL_FIELDS``."""
    return [
        dict(zip(_CELL_FIELDS, (
            dataset, report.dataset_tasks[dataset].value, paradigm.value,
            stats.correct, stats.total, format_pct(stats.accuracy),
        )))
        for (dataset, paradigm), stats in sorted(
            report.cells.items(), key=lambda item: (item[0][0], item[0][1].value)
        )
    ]


def _summary_row(report: EvalReport, paradigm: Paradigm) -> dict[str, str]:
    """A paradigm's accuracy per column header; a task it never ran has no entry."""
    cells = report.task_cells(paradigm)
    row = {_COLUMN_HEADERS[t]: format_pct(cells[t].accuracy) for t in _COLUMN_TASKS if t in cells}
    row["TSO(Avg.)"] = format_pct(report.tso_average(paradigm))
    row["Avg."] = format_pct(report.overall_average(paradigm))
    return row


def render_table(report: EvalReport) -> str:
    headers = ["Method"] + [_COLUMN_HEADERS[t] for t in _COLUMN_TASKS] + ["TSO(Avg.)", "Avg."]
    rows = [headers]
    for paradigm in report.paradigms():
        summary = _summary_row(report, paradigm)
        rows.append([DISPLAY_NAMES[paradigm]] + [summary.get(h, "-") for h in headers[1:]])
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def report_pieces(report: EvalReport) -> Iterator[str]:
    """The text of report.json in pieces: the head up to ``"records": [``, each record's
    item with its separator, then the tail. Nothing holds more than one item at a time.

    The text is ``json.dumps(document, indent=2, sort_keys=True,
    ensure_ascii=False)`` plus a newline. Prompt digests, completions and
    latencies stay in records.jsonl; excluding them here keeps resumed and
    uninterrupted runs byte-identical. ``indent`` sends ``json.dumps`` to
    its pure-Python encoder, so the per-item block, most of the document,
    is formatted from ``_RECORD_ITEM`` with the C string escaper (its
    record fields must be ``str``) and yielded between the head and the tail.
    """
    summary = {paradigm.value: _summary_row(report, paradigm) for paradigm in report.paradigms()}
    document = {"cells": _cell_rows(report), "summary": summary, "records": [], "config": report.config}
    text = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if not report.records:
        yield text
        return
    # Only the document's own keys sit at a two-space indent (a string never
    # holds a raw newline), so this finds the top-level "records" alone.
    head, _, tail = text.partition(_NO_RECORDS)
    yield head + '\n  "records": ['
    separator = "\n"
    for record in report.records:
        yield _RECORD_ITEM % (
            separator,
            "true" if record.correct else "false",
            encode_basestring(record.dataset),
            encode_basestring(record.extracted),
            encode_basestring(record.gold),
            encode_basestring(record.instance_id),
            encode_basestring(record.paradigm.value),
        )
        separator = ",\n"
    yield "\n  ]" + tail


def report_json(report: EvalReport) -> str:
    """The text of report.json: ``report_pieces`` joined."""
    return "".join(report_pieces(report))


def report_csv(report: EvalReport) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_CELL_FIELDS)
    writer.writerows(row.values() for row in _cell_rows(report))
    return buffer.getvalue()
