"""Ground every story POI against the data and enforce the story contract.

A mention is only as good as its distance to the evidence: each named POI
is geocoded and measured against the trajectory (or the hotspot centers),
and anything too far out is flagged as a spatial hallucination. Discovery
offers places by the same ``GroundingRule``. Structural checks cover the
word cap, the POI quota, and markup health. A story passes only when every
distinct place it names is grounded and every structural check passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .gazetteer import Gazetteer, normalize_name
from .geo import GeoPoint, Polyline, arc_m, first_within, haversine_h
from .story import Mention, Story

GROUNDED = "grounded"
UNGEOCODABLE = "ungeocodable"
HALLUCINATION = "spatial_hallucination"
UNGRADED = "ungraded"


@dataclass(frozen=True, eq=False)
class GroundingRule:
    """A place is grounded when some piece of evidence lies within ``threshold_m``.

    The analytics step builds one per run, from its evidence and the mode's
    threshold: ``trajectory_threshold_m`` along a trip, ``hotspot_threshold_m``
    around the hotspot centers. ``nearest`` keeps the least term of each batch
    ``piece_h`` yields; ``first_in_reach`` stops at the first batch with one in reach.
    """

    evidence: np.ndarray        # (N, 2) lon/lat: the trip's points, or the hotspot centers by rank
    threshold_m: float
    along_path: bool            # the pieces are the trip's segments, in route order

    @cached_property
    def _path(self) -> Polyline:
        return Polyline(self.evidence)

    def piece_h(self, p: GeoPoint,
                limit_m: float | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield, batch by batch in evidence order (the hotspot centers are one),
        (index, haversine term) of each piece of evidence that may lie within
        ``limit_m`` of ``p`` (by default, the nearest piece among them)."""
        if self.along_path:
            yield from self._path.segment_h(p, limit_m)
        else:
            yield np.arange(len(self.evidence)), haversine_h(p, *self.evidence.T)

    def nearest(self, p: GeoPoint) -> float:
        """Distance from ``p`` to its nearest piece (NaN if a term is): what grading measures."""
        return arc_m(np.min([h.min() for _, h in self.piece_h(p)]))

    def first_in_reach(self, p: GeoPoint) -> tuple[int, float] | None:
        """(index, distance) of the first piece within the threshold: what discovery keeps."""
        for pieces, h in self.piece_h(p, self.threshold_m):
            hit = first_within(h, self.threshold_m)
            if hit is not None:
                return int(pieces[hit[0]]), hit[1]
        return None


@dataclass(frozen=True)
class PoiVerdict:
    name: str
    verdict: str
    distance_m: float | None = None
    location: GeoPoint | None = None


@dataclass(frozen=True)
class StructuralCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    per_poi: list[PoiVerdict]
    structural: list[StructuralCheck]
    grounded_fraction: float
    overall: bool

    def flagged(self) -> list[PoiVerdict]:
        return [p for p in self.per_poi if p.verdict == HALLUCINATION]

    def ungeocodable(self) -> list[PoiVerdict]:
        return [p for p in self.per_poi if p.verdict == UNGEOCODABLE]


def distinct_names(mentions: list[Mention]) -> list[str]:
    """The first spelling of each place, by normalized name, in story order."""
    display: dict[str, str] = {}
    for m in mentions:
        display.setdefault(normalize_name(m.name), m.name)
    return list(display.values())


def validate_story(story: Story, rule: GroundingRule | None,
                   gazetteer: Gazetteer) -> ValidationReport:
    """Grade one story: spatial verdict per distinct POI plus structural checks.

    The story passes when every verdict is ``grounded`` and every structural
    check passed; ``grounded_fraction`` is grounded / distinct places (1.0
    when it names none). Mentions are deduplicated by normalized name first,
    so repeating a name cannot double-penalize a miss. The POI quota counts
    places: names located to one POI (its name and an alias) count once, so
    neither repeats nor aliases pad it. With no ``rule`` (no evidence) each
    located place is ``ungraded``.
    Gazetteer transport failures surface as InfrastructureError (retry
    material), not as a failing report.
    """
    spec = story.spec
    names = distinct_names(story.mentions)
    located = gazetteer.bulk_geocode(names)

    per_poi = []
    for name in names:
        poi = located[name]
        if poi is None:
            per_poi.append(PoiVerdict(name=name, verdict=UNGEOCODABLE))
            continue
        d = None if rule is None else rule.nearest(poi.location)
        verdict = UNGRADED if d is None else GROUNDED if d <= rule.threshold_m else HALLUCINATION
        per_poi.append(PoiVerdict(name=name, verdict=verdict, distance_m=d,
                                  location=poi.location))

    places = len({normalize_name(located[name].name if located[name] else name)
                  for name in names})
    structural = [
        StructuralCheck("min_pois", places >= spec.min_pois,
                        f"{places} distinct POIs, need at least {spec.min_pois}"),
        StructuralCheck("max_words", story.word_count <= spec.max_words,
                        f"{story.word_count} words, cap {spec.max_words}"),
        StructuralCheck("markup", True, f"{len(story.mentions)} spans parsed"),
    ]
    grounded = sum(1 for p in per_poi if p.verdict == GROUNDED)
    overall = grounded == len(per_poi) and all(c.passed for c in structural)
    return ValidationReport(per_poi=per_poi, structural=structural,
                            grounded_fraction=grounded / len(per_poi) if per_poi else 1.0,
                            overall=overall)


def malformed_story_report(detail: str) -> ValidationReport:
    """Failing report for a response the story parser rejected outright."""
    structural = [StructuralCheck("markup", False, detail)]
    return ValidationReport(per_poi=[], structural=structural,
                            grounded_fraction=0.0, overall=False)


def feedback_text(report: ValidationReport) -> str:
    """Corrective instructions for the next generation attempt.

    Names every flagged or unresolvable POI with its evidence and restates
    each failed structural constraint, in report order; same report, same
    text.
    """
    if report.overall:
        raise ValueError("feedback requested for a passing report")
    parts = []
    for p in report.per_poi:
        if p.verdict == HALLUCINATION:
            parts.append(f"Do not mention {p.name}: it is {p.distance_m:.0f} m "
                         "away from the route data.")
        elif p.verdict == UNGEOCODABLE:
            parts.append(f"Do not mention {p.name}: it could not be located.")
    for c in report.structural:
        if not c.passed:
            parts.append(f"Fix {c.name}: {c.detail}.")
    return " ".join(parts)


def report_to_dict(report: ValidationReport) -> dict:
    """Structured export: one record per verdict plus the structural section."""
    return {
        "overall": "pass" if report.overall else "fail",
        "grounded_fraction": report.grounded_fraction,
        "per_poi": [
            {
                "name": p.name,
                "verdict": p.verdict,
                "distance_m": p.distance_m,
                "lon": p.location.lon if p.location else None,
                "lat": p.location.lat if p.location else None,
            }
            for p in report.per_poi
        ],
        "structural": [
            {"check": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.structural
        ],
    }


def summarize_report(report: ValidationReport) -> str:
    """Human-readable report, one line per POI and per check."""
    grounded = sum(1 for p in report.per_poi if p.verdict == GROUNDED)
    lines = [
        f"validation: {'PASS' if report.overall else 'FAIL'}",
        f"POIs: {grounded} grounded, {len(report.flagged())} flagged, "
        f"{len(report.ungeocodable())} ungeocodable "
        f"(grounded fraction {report.grounded_fraction:.2f})",
    ]
    for p in report.per_poi:
        if p.distance_m is None:
            lines.append(f"  - {p.name}: {p.verdict}")
        else:
            lines.append(f"  - {p.name}: {p.verdict} ({p.distance_m:.0f} m)")
    lines.append("checks:")
    for c in report.structural:
        lines.append(f"  - {c.name}: {'ok' if c.passed else 'FAIL'} ({c.detail})")
    return "\n".join(lines)
