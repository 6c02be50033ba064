"""Trajectory-to-story pipeline: analytics, grounded narration, maps.

The package turns raw GPS traces into short narrated stories whose named
places are spatially checked against the data, then renders the survivors
as a numbered map. See the README for the CLI and configuration surface.
Each exported name imports its module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each module and the names it exports: the one list of the public API.
_EXPORTS = {
    "errors": "ConfigurationError InfrastructureError MalformedStoryError NotFoundError "
              "ParseError ProtocolError StoryValidationError TrajstoryError",
    "gazetteer": "POI Gazetteer GazetteerConfig normalize_name",
    "geo": "EARTH_RADIUS_M BoundingBox GeoPoint meters_per_degree",
    "heatgrid": "HeatGrid Hotspot build_grid summarize_for_story top_hotspots",
    "ingest": "Dataset Trajectory parse_dataset",
    "mapdoc": "MapDocument emit_map render_geojson render_html",
    "pipeline": "RunState StoryRequest execute plan write_bundle",
    "story": "NarrativeSpec RemoteBackend Story StoryBackend StoryContext TemplateBackend "
             "build_prompt count_words extract_mentions generate_story strip_markup",
    "validation": "GroundingRule ValidationReport feedback_text validate_story",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value         # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
