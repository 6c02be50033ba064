"""Attacks on a passing draft: one Hypothesis strategy each, and the list of them.

The draft is the template story over the downtown route's thirteen places, in
route order, graded along that route at its quota (``min_pois`` 13); it passes.
Each attack takes the draft's text and draws a variant that must fail
``validate_story``. ``ATTACKS`` holds them as pytest params. An attack the
validator does not catch yet carries a strict xfail naming the ROADMAP item that
closes it, so that list is the validator's open holes, and landing the item
turns its xfail into a failure until the marker goes.
"""

from __future__ import annotations

import csv
import functools
import re

import pytest
from hypothesis import strategies as st

from conftest import CENTRAL_ROUTE_NAMES, FAR_POI_NAMES
from oracles import haversine_distance
from trajstory.gazetteer import Gazetteer, GazetteerConfig, default_fixture_path
from trajstory.geo import as_coords
from trajstory.pipeline import StoryRequest
from trajstory.story import (NarrativeSpec, Story, StoryContext, TemplateBackend,
                             count_words, extract_mentions, generate_story)
from trajstory.validation import GroundingRule, ValidationReport, validate_story

SPEC = NarrativeSpec(mode="single_trajectory", min_pois=len(CENTRAL_ROUTE_NAMES),
                     max_words=400)


@functools.cache
def gazetteer() -> Gazetteer:
    return Gazetteer(GazetteerConfig())


@functools.cache
def aliases() -> dict[str, tuple[str, ...]]:
    """Each fixture name's aliases, as the fixture file lists them."""
    with open(default_fixture_path(), encoding="utf-8", newline="") as fh:
        return {row["name"]: tuple(filter(None, row["aliases"].split("|")))
                for row in csv.DictReader(fh)}


@functools.cache
def draft() -> str:
    ctx = StoryContext(data_summary="a downtown walking route", region_name="Porto",
                       candidate_pois=[gazetteer().geocode(n) for n in CENTRAL_ROUTE_NAMES])
    return generate_story("", TemplateBackend(), SPEC, ctx).text


@functools.cache
def rule() -> GroundingRule:
    """The downtown route's rule, as a single-trajectory run builds it by default."""
    route = as_coords([gazetteer().geocode(n).location for n in CENTRAL_ROUTE_NAMES])
    return GroundingRule(route, StoryRequest().trajectory_threshold_m, along_path=True)


def grade(text: str) -> ValidationReport:
    """``validate_story`` of ``text`` along the downtown route, under the draft's spec."""
    story = Story(text=text, mentions=extract_mentions(text), word_count=count_words(text),
                  spec=SPEC, backend_id="adversary")
    return validate_story(story, rule(), gazetteer())


def spellings(name: str) -> st.SearchStrategy[str]:
    """``name`` or one of its fixture aliases, in its own letter case or another."""
    return st.sampled_from([name, *aliases()[name]]).flatmap(
        lambda s: st.sampled_from([s, s.upper(), s.lower(), s.swapcase()]))


def inserted(text: str, sentence: str) -> st.SearchStrategy[str]:
    """``text`` with ``sentence`` after one of its marked sentences."""
    ends = [m.end() for m in re.finditer(r"\]\]\.", text)]
    return st.sampled_from(ends).map(lambda i: f"{text[:i]} {sentence}{text[i:]}")


@st.composite
def far_place_marked_in_disguise(draw, text: str) -> str:
    """A far place marked under a fixture alias or in another letter case."""
    name = draw(st.sampled_from(FAR_POI_NAMES))
    spelling = draw(spellings(name).filter(lambda s: s != name))
    return draw(inserted(text, f"Close by, [[POI: {spelling}]]."))


@st.composite
def one_place_under_two_names(draw, text: str) -> str:
    """One place's mention gives way to another's alias: the quota is met by names only."""
    place = draw(st.sampled_from([n for n in CENTRAL_ROUTE_NAMES if aliases()[n]]))
    alias = draw(st.sampled_from(aliases()[place]))
    gone = draw(st.sampled_from([n for n in CENTRAL_ROUTE_NAMES if n != place]))
    mention = next(m for m in extract_mentions(text) if m.name == gone)
    return f"{text[:mention.start]}[[POI: {alias}]]{text[mention.end:]}"


@st.composite
def act_breaks_dropped(draw, text: str) -> str:
    """One or both blank lines between the acts become a space or a line end."""
    acts = text.split("\n\n")
    dropped = draw(st.sets(st.sampled_from(range(len(acts) - 1)), min_size=1))
    joins = [draw(st.sampled_from([" ", "\n"])) if i in dropped else "\n\n"
             for i in range(len(acts) - 1)]
    return acts[0] + "".join(join + act for join, act in zip(joins, acts[1:]))


@st.composite
def far_place_named_unmarked(draw, text: str) -> str:
    """A far place the gazetteer knows, named in plain text."""
    spelling = draw(st.sampled_from(FAR_POI_NAMES).flatmap(spellings))
    return draw(inserted(text, f"Close by, {spelling}."))


@st.composite
def route_order_reversed(draw, text: str) -> str:
    """A run of the marked places whose ends lie over 1 km apart, told backwards."""
    mentions = extract_mentions(text)
    where = [gazetteer().geocode(m.name).location for m in mentions]
    i, j = draw(st.sampled_from([(i, j) for i in range(len(where))
                                 for j in range(i + 1, len(where))
                                 if haversine_distance(where[i], where[j]) > 1000.0]))
    run = mentions[i:j + 1]
    parts, end = [], 0
    for m, told in zip(run, reversed(run)):
        parts += [text[end:m.start], f"[[POI: {told.name}]]"]
        end = m.end
    return "".join(parts) + text[end:]


@st.composite
def figure_inflated(draw, text: str) -> str:
    """A figure no digest gives, stated as the route's length."""
    return draw(inserted(text, f"The route runs {draw(st.integers(50, 900))} km."))


ATTACKS = [
    pytest.param(far_place_marked_in_disguise, id="far-place-marked-in-disguise"),
    pytest.param(one_place_under_two_names, id="one-place-under-two-names"),
    pytest.param(act_breaks_dropped, id="act-breaks-dropped",
                 marks=pytest.mark.xfail(strict=True, reason="item 3")),
    pytest.param(far_place_named_unmarked, id="far-place-named-unmarked",
                 marks=pytest.mark.xfail(strict=True, reason="item 4")),
    pytest.param(route_order_reversed, id="route-order-reversed",
                 marks=pytest.mark.xfail(strict=True, reason="item 6")),
    pytest.param(figure_inflated, id="figure-inflated",
                 marks=pytest.mark.xfail(strict=True, reason="item 11")),
]
