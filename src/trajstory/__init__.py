"""Trajectory-to-story pipeline: analytics, grounded narration, maps.

The package turns raw GPS traces into short narrated stories whose named
places are spatially checked against the data, then renders the survivors
as a numbered map. See the README for the CLI and configuration surface.
"""

from .errors import (ConfigurationError, InfrastructureError, MalformedStoryError,
                     NotFoundError, ParseError, ProtocolError,
                     StoryValidationError, TrajstoryError)
from .gazetteer import POI, Gazetteer, GazetteerConfig, normalize_name
from .geo import (EARTH_RADIUS_M, BoundingBox, GeoPoint, meters_per_degree,
                  point_to_polyline_distance)
from .heatgrid import HeatGrid, Hotspot, build_grid, summarize_for_story, top_hotspots
from .ingest import Dataset, Trajectory, parse_dataset
from .mapdoc import MapDocument, emit_map, render_geojson, render_html
from .pipeline import RunState, StoryRequest, execute, plan, write_bundle
from .story import (NarrativeSpec, RemoteBackend, Story, StoryBackend,
                    StoryContext, TemplateBackend, build_prompt, count_words,
                    extract_mentions, generate_story, strip_markup)
from .validation import (GroundingPolicy, GroundingRule, ValidationReport,
                         feedback_text, validate_story)

__version__ = "0.1.0"

__all__ = [
    "BoundingBox", "ConfigurationError", "Dataset",
    "EARTH_RADIUS_M", "Gazetteer", "GazetteerConfig", "GeoPoint",
    "GroundingPolicy", "GroundingRule", "HeatGrid", "Hotspot",
    "InfrastructureError", "MalformedStoryError", "MapDocument",
    "NarrativeSpec", "NotFoundError", "POI", "ParseError", "ProtocolError",
    "RemoteBackend", "RunState", "Story", "StoryBackend", "StoryContext",
    "StoryRequest", "StoryValidationError", "Trajectory", "TrajstoryError",
    "TemplateBackend", "ValidationReport", "build_grid",
    "build_prompt", "count_words", "emit_map", "execute", "extract_mentions",
    "feedback_text", "generate_story",
    "meters_per_degree", "normalize_name", "parse_dataset", "plan",
    "point_to_polyline_distance", "render_geojson", "render_html",
    "strip_markup", "summarize_for_story",
    "top_hotspots", "validate_story", "write_bundle",
]
