"""Trajectory-to-story pipeline: analytics, grounded narration, maps.

The package turns raw GPS traces into short narrated stories whose named
places are spatially checked against the data, then renders the survivors
as a numbered map. See the README for the CLI and configuration surface.
The package re-exports nothing: each name is imported from the module that
defines it, such as ``from trajstory.geo import GeoPoint``.
"""

__version__ = "0.1.0"
