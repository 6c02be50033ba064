"""Ground every story POI against the data and enforce the story contract.

A mention is only as good as its distance to the evidence: each named POI
is geocoded and measured against the trajectory (or the hotspot centers),
and anything too far out is flagged as a spatial hallucination. Discovery
offers places by the same ``GroundingRule``. Structural checks cover the
word cap, the POI quota, and markup health.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .gazetteer import Gazetteer, GazetteerConfig, normalize_name
from .geo import (GeoPoint, arc_m, as_coords, first_within, haversine_h,
                  point_to_polyline_distance, segment_h)
from .story import Mention, Story

GROUNDED = "grounded"
UNGEOCODABLE = "ungeocodable"
HALLUCINATION = "spatial_hallucination"


@dataclass
class GroundingPolicy:
    """Distance thresholds and strictness knobs for spatial grounding."""

    trajectory_threshold_m: float = 500.0
    hotspot_threshold_m: float = 1000.0
    require_geocode: bool = True
    min_grounded_fraction: float = 1.0

    def __post_init__(self):
        if self.trajectory_threshold_m < 0 or self.hotspot_threshold_m < 0:
            raise ValueError("grounding thresholds must be >= 0")
        if not 0.0 <= self.min_grounded_fraction <= 1.0:
            raise ValueError(
                f"min_grounded_fraction must be in [0, 1], got {self.min_grounded_fraction}")


@dataclass
class GroundingContext:
    """Reference geometry the story is checked against.

    ``trajectory`` serves single_trajectory mode, ``hotspot_centers`` serves
    heatmap mode; only the one matching the story's mode is consulted.
    """

    trajectory: list[GeoPoint] | None = None
    hotspot_centers: list[GeoPoint] | None = None


@dataclass(frozen=True, eq=False)
class GroundingRule:
    """A place is grounded when some piece of evidence lies within ``threshold_m``."""

    threshold_m: float
    evidence: np.ndarray        # (N, 2) lon/lat: the trip's points, or the hotspot centers by rank
    along_path: bool            # the pieces are the trip's segments, in route order

    def piece_h(self, p: GeoPoint) -> np.ndarray:
        """Haversine term from ``p`` to each piece of evidence, in evidence order."""
        if self.along_path:
            return segment_h(p, self.evidence)
        return haversine_h(p, self.evidence[:, 0], self.evidence[:, 1])

    def nearest(self, p: GeoPoint) -> float:
        """Distance from ``p`` to its nearest piece of evidence: what grading measures."""
        if self.along_path:
            # the same value as below, through the entry point perfbench's tracer times
            return point_to_polyline_distance(p, self.evidence)
        return arc_m(self.piece_h(p).min())

    def first_in_reach(self, p: GeoPoint) -> tuple[int, float] | None:
        """(index, distance) of the first piece within the threshold: what discovery keeps."""
        return first_within(self.piece_h(p), self.threshold_m)


def grounding_rule(ctx: GroundingContext, mode: str, policy: GroundingPolicy) -> GroundingRule:
    """The rule ``mode`` grounds by: its evidence in ``ctx`` and its threshold in ``policy``."""
    if mode == "single_trajectory":
        if not ctx.trajectory:
            raise ConfigurationError("single_trajectory validation needs ctx.trajectory")
        return GroundingRule(policy.trajectory_threshold_m, as_coords(ctx.trajectory),
                             along_path=True)
    if not ctx.hotspot_centers:
        raise ConfigurationError("heatmap validation needs ctx.hotspot_centers")
    return GroundingRule(policy.hotspot_threshold_m, as_coords(ctx.hotspot_centers),
                         along_path=False)


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


def _grounded_fraction(per_poi: list[PoiVerdict], policy: GroundingPolicy) -> float:
    grounded = sum(1 for p in per_poi if p.verdict == GROUNDED)
    if policy.require_geocode:
        denom = len(per_poi)
    else:
        denom = sum(1 for p in per_poi if p.verdict != UNGEOCODABLE)
    return grounded / denom if denom else 1.0


def distinct_names(mentions: list[Mention]) -> list[str]:
    """The first spelling of each place, by normalized name, in story order."""
    display: dict[str, str] = {}
    for m in mentions:
        display.setdefault(normalize_name(m.name), m.name)
    return list(display.values())


def validate_story(story: Story, ctx: GroundingContext, policy: GroundingPolicy,
                   gazetteer: Gazetteer | GazetteerConfig) -> ValidationReport:
    """Grade one story: spatial verdict per distinct POI plus structural checks.

    Mentions are deduplicated by normalized name first, so repeating a name
    can neither pad the POI quota nor double-penalize a miss. Gazetteer
    transport failures surface as InfrastructureError (retry material), not
    as a failing report.
    """
    gaz = gazetteer if isinstance(gazetteer, Gazetteer) else Gazetteer(gazetteer)
    spec = story.spec
    rule = grounding_rule(ctx, spec.mode, policy)

    names = distinct_names(story.mentions)
    located = gaz.bulk_geocode(names)

    per_poi = []
    for name in names:
        poi = located[name]
        if poi is None:
            per_poi.append(PoiVerdict(name=name, verdict=UNGEOCODABLE))
            continue
        d = rule.nearest(poi.location)
        verdict = GROUNDED if d <= rule.threshold_m else HALLUCINATION
        per_poi.append(PoiVerdict(name=name, verdict=verdict, distance_m=d,
                                  location=poi.location))

    structural = [
        StructuralCheck("min_pois", len(per_poi) >= spec.min_pois,
                        f"{len(per_poi)} distinct POIs, need at least {spec.min_pois}"),
        StructuralCheck("max_words", story.word_count <= spec.max_words,
                        f"{story.word_count} words, cap {spec.max_words}"),
        StructuralCheck("markup", True, f"{len(story.mentions)} spans parsed"),
    ]
    fraction = _grounded_fraction(per_poi, policy)
    overall = fraction >= policy.min_grounded_fraction and all(c.passed for c in structural)
    return ValidationReport(per_poi=per_poi, structural=structural,
                            grounded_fraction=fraction, overall=overall)


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
