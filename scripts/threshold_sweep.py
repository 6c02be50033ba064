"""Sweep the grounding threshold and chart hallucination precision/recall.

Builds a story along a downtown walking route whose vertices sit on known
fixture POIs, plants five far-away fixture POIs into it, then validates at
a range of trajectory distance thresholds. Low thresholds flag honest
mentions too (precision drops); very high thresholds let the planted ones
through (recall drops). The default trajectory threshold
(``StoryRequest().trajectory_threshold_m``, 500 m) sits in the wide flat
region where both are 1.0.
"""

import argparse
import sys

from trajstory.gazetteer import Gazetteer, GazetteerConfig
from trajstory.geo import as_coords
from trajstory.pipeline import discover
from trajstory.story import (NarrativeSpec, StoryContext, TemplateBackend,
                             generate_story)
from trajstory.synth import ScriptedBackend
from trajstory.validation import GroundingRule, validate_story

ROUTE_NAMES = [
    "Palácio de Cristal Gardens", "Igreja do Carmo", "Livraria Lello",
    "Clérigos Tower", "Praça da Liberdade", "Avenida dos Aliados",
    "São Bento Station", "Bolhão Market", "Rua de Santa Catarina",
    "Porto Cathedral", "Igreja de São Francisco", "Ribeira",
    "Dom Luís I Bridge",
]
FAR_NAMES = ["Foz do Douro", "Matosinhos Beach", "Estádio do Dragão",
             "Serralves Museum", "Parque da Cidade"]

DEFAULT_THRESHOLDS = [0, 50, 100, 250, 500, 1000, 2000, 3000, 5000, 8000]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--thresholds", type=float, nargs="+",
                        default=DEFAULT_THRESHOLDS, metavar="METERS")
    args = parser.parse_args(argv)

    gaz = Gazetteer(GazetteerConfig())
    route = as_coords(gaz.geocode(name).location for name in ROUTE_NAMES)
    # the honest story's material: the places within 250 m of the route
    candidates = discover(gaz, GroundingRule(route, 250.0, along_path=True))

    spec = NarrativeSpec(mode="single_trajectory", min_pois=10, max_words=400)
    ctx = StoryContext(data_summary="a downtown walking route",
                       candidate_pois=candidates, region_name="Porto")
    honest = generate_story("", TemplateBackend(), spec, ctx).text.rstrip("\n")
    planted_text = "".join(f" The route also claims a detour at [[POI: {name}]]."
                           for name in FAR_NAMES)
    story = generate_story("", ScriptedBackend([honest + planted_text + "\n"]), spec, ctx)
    planted = set(FAR_NAMES)
    print(f"story: {len(story.mentions)} mentions, {len(planted)} planted far POIs")
    print(f"{'threshold_m':>11}  {'flagged':>7}  {'precision':>9}  {'recall':>6}")

    for threshold in args.thresholds:
        rule = GroundingRule(route, threshold, along_path=True)
        report = validate_story(story, rule, gaz)
        flagged = {p.name for p in report.flagged()}
        hits = len(flagged & planted)
        precision = hits / len(flagged) if flagged else 1.0
        recall = hits / len(planted)
        print(f"{threshold:>11.0f}  {len(flagged):>7}  {precision:>9.3f}  {recall:>6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
