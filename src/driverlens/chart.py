"""Dependency-free SVG bar chart of feature importances."""

from __future__ import annotations

from .ioutil import atomic_write_text

_ROW_HEIGHT = 24
_LABEL_WIDTH = 170
_BAR_MAX = 420
_MARGIN = 16
_BAR_COLOR = "#4878a8"


def _escape(text: str) -> str:
    """XML-escape &, < and > (as xml.sax.saxutils.escape does, without
    importing it: that module pulls in urllib and http.client)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_chart_svg(ranking) -> str:
    """Horizontal bars sorted by rank; lengths scale with the scores."""
    entries = sorted(
        range(len(ranking.scores)), key=lambda j: ranking.ranks[j]
    )
    max_score = max((float(ranking.scores[j]) for j in entries), default=0.0)
    width = _MARGIN * 2 + _LABEL_WIDTH + _BAR_MAX + 80
    height = _MARGIN * 2 + 28 + _ROW_HEIGHT * len(entries)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<text x="{_MARGIN}" y="{_MARGIN + 12}" font-family="sans-serif" '
        f'font-size="14" font-weight="bold">Feature importance</text>',
    ]
    for row, j in enumerate(entries):
        y_top = _MARGIN + 28 + row * _ROW_HEIGHT
        score = float(ranking.scores[j])
        bar = 0.0 if max_score == 0.0 else _BAR_MAX * score / max_score
        parts.append(
            f'<text x="{_MARGIN + _LABEL_WIDTH - 6}" y="{y_top + 15}" '
            f'font-family="sans-serif" font-size="12" text-anchor="end">'
            f"{_escape(ranking.names[j])}</text>"
        )
        parts.append(
            f'<rect x="{_MARGIN + _LABEL_WIDTH}" y="{y_top + 4}" '
            f'width="{bar:.2f}" height="{_ROW_HEIGHT - 8}" fill="{_BAR_COLOR}"/>'
        )
        parts.append(
            f'<text x="{_MARGIN + _LABEL_WIDTH + bar + 6:.2f}" y="{y_top + 15}" '
            f'font-family="sans-serif" font-size="11">{score:.4f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_chart(ranking, path: str):
    """Render and atomically write the chart; the file is valid standalone SVG."""
    if len(ranking.scores) == 0:
        raise ValueError("cannot chart an empty ranking")
    atomic_write_text(path, render_chart_svg(ranking))
