"""Report construction and rendering.

One report object holds the computed numbers; two renderers (indented
key-value machine text and human tables) print the same values.  Machine
output is deterministic for a fixed catalog except for the ``timing_s``
field, which consumers must ignore when diffing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from . import __version__


@dataclass
class Report:
    command: str
    catalog_fingerprint: str
    results: dict[str, Any] = field(default_factory=dict)
    timing_s: float | None = None
    failed: bool = False
    raw_text: str | None = None  # verbatim output (catalog dumps), no wrapping

    def to_machine(self) -> str:
        doc = {
            "command": self.command,
            "tool_version": __version__,
            "catalog_fingerprint": self.catalog_fingerprint,
            "status": "fail" if self.failed else "pass",
            "results": self.results,
        }
        if self.timing_s is not None:
            doc["timing_s"] = round(self.timing_s, 3)
        return render_value(doc) + "\n"


def _scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    if text == "" or any(ch in text for ch in ":#\n") or text != text.strip():
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return text


def render_value(value: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return pad + "{}"
        lines = []
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.append(render_value(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: " + (_scalar(item) if not isinstance(item, (dict, list))
                                                else ("{}" if isinstance(item, dict) else "[]")))
        return "\n".join(lines)
    if isinstance(value, list):
        if not value:
            return pad + "[]"
        lines = []
        for item in value:
            if isinstance(item, (dict, list)) and item:
                body = render_value(item, indent + 1)
                first, _, rest = body.partition("\n")
                lines.append(pad + "- " + first.strip())
                if rest:
                    lines.append(rest)
            else:
                lines.append(pad + "- " + _scalar(item))
        return "\n".join(lines)
    return pad + _scalar(value)


def render_table(rows: list[dict[str, Any]], columns: list[str]) -> str:
    """Plain aligned-column table over a list of flat dicts."""
    widths = {c: len(c) for c in columns}
    cells = []
    for row in rows:
        line = {c: _plain(row.get(c, "")) for c in columns}
        cells.append(line)
        for c in columns:
            widths[c] = max(widths[c], len(line[c]))
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    rule = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(line[c].ljust(widths[c]) for c in columns)
        for line in cells
    ]
    return "\n".join([header, rule, *body])


def _plain(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    return str(value)
