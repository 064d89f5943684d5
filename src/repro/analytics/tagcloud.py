"""Tag-cloud rendering of PMI-ranked vocabularies (Figure 3).

The paper's Figure 3 shows "the weekly evolution of French politician
vocabulary on the state of emergency ..., colored according to the
political group of the author".  We reproduce the content of the figure:
a tag cloud per week where each term's size is driven by its PMI score
and its colour by the political group that uses it most distinctively.
Two renderers are provided: a terminal-friendly text rendering and an SVG
rendering suitable for inclusion in a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analytics.pmi import GroupVocabulary

#: Colours of the paper's Figure 3: extreme-left red, left pink, right blue,
#: extreme-right dark blue, ecologists green.
GROUP_COLORS = {
    "extreme-left": "#d62728",
    "left": "#ff7fbf",
    "right": "#1f77b4",
    "extreme-right": "#0b2a66",
    "ecologists": "#2ca02c",
    "center": "#9467bd",
}

#: Fallback colour for groups not in :data:`GROUP_COLORS`.
DEFAULT_COLOR = "#7f7f7f"


@dataclass(frozen=True)
class TagCloudEntry:
    """One term of a tag cloud."""

    term: str
    weight: float
    group: str
    color: str


@dataclass
class TagCloud:
    """A tag cloud: weighted, coloured terms for one corpus slice (e.g. a week)."""

    title: str
    entries: list[TagCloudEntry] = field(default_factory=list)

    def top(self, k: int = 20) -> list[TagCloudEntry]:
        """The ``k`` heaviest entries."""
        return sorted(self.entries, key=lambda e: -e.weight)[:k]

    def terms(self) -> set[str]:
        """The set of terms present in the cloud."""
        return {entry.term for entry in self.entries}

    def groups(self) -> set[str]:
        """The political groups contributing to the cloud."""
        return {entry.group for entry in self.entries}

    # ------------------------------------------------------------------
    def to_text(self, k: int = 20, columns: int = 4) -> str:
        """Terminal rendering: size buckets rendered as UPPER/Title/lower case."""
        entries = self.top(k)
        if not entries:
            return f"== {self.title} == (empty)"
        max_weight = max(e.weight for e in entries) or 1.0
        cells = []
        for entry in entries:
            ratio = entry.weight / max_weight
            if ratio > 0.66:
                text = entry.term.upper()
            elif ratio > 0.33:
                text = entry.term.title()
            else:
                text = entry.term.lower()
            cells.append(f"{text}[{entry.group[:3]}]")
        width = max(len(c) for c in cells) + 2
        lines = [f"== {self.title} =="]
        for start in range(0, len(cells), columns):
            row = cells[start:start + columns]
            lines.append("".join(cell.ljust(width) for cell in row))
        return "\n".join(lines)

    def to_svg(self, k: int = 20, width: int = 640, row_height: int = 28) -> str:
        """SVG rendering with font size proportional to weight and group colours."""
        entries = self.top(k)
        max_weight = max((e.weight for e in entries), default=1.0) or 1.0
        height = row_height * (len(entries) // 4 + 2)
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
            f'<text x="10" y="20" font-size="16" font-weight="bold">{_escape(self.title)}</text>',
        ]
        x, y = 10, 50
        for entry in entries:
            size = 10 + int(14 * entry.weight / max_weight)
            estimated_width = int(size * 0.62 * len(entry.term)) + 12
            if x + estimated_width > width:
                x = 10
                y += row_height
            parts.append(
                f'<text x="{x}" y="{y}" font-size="{size}" fill="{entry.color}">'
                f"{_escape(entry.term)}</text>"
            )
            x += estimated_width
        parts.append("</svg>")
        return "\n".join(parts)


def build_tag_cloud(vocabularies: dict[str, GroupVocabulary], title: str,
                    terms_per_group: int = 6,
                    colors: dict[str, str] | None = None) -> TagCloud:
    """Build a tag cloud from per-group PMI vocabularies.

    Each group contributes its ``terms_per_group`` most distinctive terms;
    when the same term is distinctive for several groups, the group with
    the highest PMI keeps it (and provides the colour), matching the
    "colored according to the political group of the author" rendering.
    The cloud does not depend on the order of ``vocabularies``: groups are
    walked in sorted order, a PMI tie goes to the first group, and entries
    are ordered by ``(-weight, group, term)``.
    """
    colors = {**GROUP_COLORS, **(colors or {})}
    best_entry: dict[str, TagCloudEntry] = {}
    for group, vocabulary in sorted(vocabularies.items()):
        color = colors.get(group, DEFAULT_COLOR)
        for scored in vocabulary.top(terms_per_group):
            existing = best_entry.get(scored.term)
            if existing is None or scored.pmi > existing.weight:
                best_entry[scored.term] = TagCloudEntry(term=scored.term, weight=scored.pmi,
                                                        group=group, color=color)
    return TagCloud(title=title, entries=sorted(best_entry.values(),
                                                key=lambda e: (-e.weight, e.group, e.term)))


def weekly_tag_clouds(weekly_vocabularies: dict[str, dict[str, GroupVocabulary]],
                      terms_per_group: int = 6,
                      colors: dict[str, str] | None = None) -> list[TagCloud]:
    """Build one tag cloud per week (the Figure 3 layout)."""
    return [build_tag_cloud(vocabularies, title=week, terms_per_group=terms_per_group,
                            colors=colors)
            for week, vocabularies in sorted(weekly_vocabularies.items())]


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
