import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adversary
from conftest import ALIASED_NAMES, CENTRAL_ROUTE_NAMES, FAR_POI_NAMES
from trajstory.errors import InfrastructureError
from trajstory.gazetteer import Gazetteer, GazetteerConfig
from trajstory.geo import as_coords as coords
from trajstory.pipeline import StoryRequest
from trajstory.story import NarrativeSpec, count_words, extract_mentions
from trajstory.validation import (GROUNDED, HALLUCINATION, UNGEOCODABLE, UNGRADED,
                                  GroundingRule,
                                  PoiVerdict, Story, ValidationReport,
                                  feedback_text, malformed_story_report,
                                  report_to_dict, summarize_report,
                                  validate_story)


def make_story(text, mode="single_trajectory", min_pois=0, max_words=10_000):
    spec = NarrativeSpec(mode=mode, min_pois=min_pois, max_words=max_words)
    return Story(text=text, mentions=extract_mentions(text),
                 word_count=count_words(text), spec=spec, backend_id="test")


def along(route, threshold_m=StoryRequest().trajectory_threshold_m):
    """The rule a single-trajectory run grounds by, along ``route``."""
    return GroundingRule(coords(route), threshold_m, along_path=True)


def marked(*names):
    return " ".join(f"[[POI: {n}]]." for n in names)


@pytest.fixture(scope="module")
def verdicts_by_name(gazetteer, central_route):
    """Validate a story holding every central and far fixture name once."""
    story = make_story(marked(*CENTRAL_ROUTE_NAMES, *FAR_POI_NAMES))
    report = validate_story(story, along(central_route), gazetteer)
    return {p.name: p for p in report.per_poi}


class TestSpatialVerdicts:
    def test_on_route_names_are_grounded_at_zero(self, verdicts_by_name):
        for name in CENTRAL_ROUTE_NAMES:
            v = verdicts_by_name[name]
            assert v.verdict == GROUNDED, name
            assert v.distance_m == pytest.approx(0.0, abs=1e-6)

    def test_far_names_are_flagged_beyond_threshold(self, verdicts_by_name):
        for name in FAR_POI_NAMES:
            v = verdicts_by_name[name]
            assert v.verdict == HALLUCINATION, name
            assert v.distance_m > 2000.0

    def test_unknown_name_is_ungeocodable(self, gazetteer, central_route):
        story = make_story(marked("Atlantis Pier"))
        report = validate_story(story, along(central_route), gazetteer)
        (v,) = report.per_poi
        assert v == PoiVerdict(name="Atlantis Pier", verdict=UNGEOCODABLE)
        assert not report.overall

    def test_heatmap_uses_nearest_hotspot_center(self, gazetteer):
        aliados = gazetteer.geocode("Avenida dos Aliados").location
        far_center = gazetteer.geocode("Matosinhos Beach").location
        story = make_story(marked("Avenida dos Aliados"), mode="heatmap")
        rule = GroundingRule(coords([far_center, aliados]), StoryRequest().hotspot_threshold_m,
                             along_path=False)
        report = validate_story(story, rule, gazetteer)
        assert report.per_poi[0].verdict == GROUNDED
        assert report.per_poi[0].distance_m == pytest.approx(0.0, abs=1e-6)

    def test_no_evidence_leaves_every_located_place_ungraded(self, gazetteer):
        story = make_story(marked("Ribeira", "Foz do Douro", "Atlantis Pier"))
        report = validate_story(story, None, gazetteer)
        ribeira, foz = (gazetteer.geocode(n).location for n in ("Ribeira", "Foz do Douro"))
        assert report.per_poi == [
            PoiVerdict(name="Ribeira", verdict=UNGRADED, location=ribeira),
            PoiVerdict(name="Foz do Douro", verdict=UNGRADED, location=foz),
            PoiVerdict(name="Atlantis Pier", verdict=UNGEOCODABLE)]
        assert report.grounded_fraction == 0.0
        assert not report.overall

    def test_transport_failure_is_infrastructure_not_a_verdict(self, central_route):
        def fetch(url, params):
            raise InfrastructureError("socket closed")

        gaz = Gazetteer(GazetteerConfig(offline_only=False), fetch=fetch)
        story = make_story(marked("Atlantis Pier"))
        with pytest.raises(InfrastructureError) as err:
            validate_story(story, along(central_route), gaz)


class TestDeduplication:
    def test_case_variants_collapse_to_one_verdict(self, gazetteer, central_route):
        story = make_story(marked("Ribeira", "  RIBEIRA ", "ribeira"))
        report = validate_story(story, along(central_route), gazetteer)
        assert [p.name for p in report.per_poi] == ["Ribeira"]

    def test_repeats_cannot_pad_the_poi_quota(self, gazetteer, central_route):
        story = make_story(marked("Ribeira", "Ribeira", "Ribeira"), min_pois=2)
        report = validate_story(story, along(central_route), gazetteer)
        check = {c.name: c for c in report.structural}["min_pois"]
        assert not check.passed
        assert check.detail == "1 distinct POIs, need at least 2"
        assert not report.overall

    def test_a_name_and_its_aliases_cannot_pad_the_poi_quota(self, gazetteer, central_route):
        story = make_story(marked(*ALIASED_NAMES), min_pois=3)
        report = validate_story(story, along(central_route), gazetteer)
        assert [(p.name, p.verdict) for p in report.per_poi] == \
            [(name, GROUNDED) for name in ALIASED_NAMES]
        assert report.grounded_fraction == 1.0
        check = {c.name: c for c in report.structural}["min_pois"]
        assert check.detail == "2 distinct POIs, need at least 3"
        assert not check.passed and not report.overall

    def test_an_unknown_name_counts_as_its_own_place(self, gazetteer, central_route):
        story = make_story(marked("Ribeira", "Cais da Ribeira", "Atlantis Pier"), min_pois=2)
        report = validate_story(story, along(central_route), gazetteer)
        check = {c.name: c for c in report.structural}["min_pois"]
        assert check.passed and check.detail == "2 distinct POIs, need at least 2"

    def test_repeated_far_name_is_penalized_once(self, gazetteer, central_route):
        story = make_story(marked("Foz do Douro", "Foz do Douro"))
        report = validate_story(story, along(central_route), gazetteer)
        assert len(report.flagged()) == 1


class TestStructuralChecks:
    def test_word_cap_violation(self, gazetteer, central_route):
        story = make_story("word " * 30 + marked("Ribeira"), max_words=10)
        report = validate_story(story, along(central_route), gazetteer)
        check = {c.name: c for c in report.structural}["max_words"]
        assert not check.passed
        assert check.detail == "31 words, cap 10"
        assert not report.overall

    def test_parsed_story_passes_markup_check(self, gazetteer, central_route):
        story = make_story(marked("Ribeira", "Bolhão Market"))
        report = validate_story(story, along(central_route), gazetteer)
        check = {c.name: c for c in report.structural}["markup"]
        assert check.passed
        assert check.detail == "2 spans parsed"

    def test_story_with_no_mentions_judged_on_structure_alone(self, gazetteer,
                                                              central_route):
        story = make_story("no markup here [[POI: x]]")
        story.mentions = []
        report = validate_story(story, along(central_route), gazetteer)
        assert report.grounded_fraction == 1.0
        assert report.overall


UNKNOWN_NAMES = ["Atlantis Pier", "Nowhere Quay"]


class TestPassRule:
    def test_an_unknown_place_fails_the_story(self, gazetteer, central_route):
        story = make_story(marked("Ribeira", "Atlantis Pier"))
        report = validate_story(story, along(central_route), gazetteer)
        assert report.grounded_fraction == pytest.approx(0.5)
        assert not report.overall
        assert len(report.ungeocodable()) == 1

    @given(picks=st.lists(st.tuples(
               st.sampled_from(CENTRAL_ROUTE_NAMES + FAR_POI_NAMES + UNKNOWN_NAMES),
               st.sampled_from([str, str.upper, str.lower])), min_size=1, max_size=8),
           min_pois=st.integers(0, 6), max_words=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_passes_only_when_every_named_place_is_grounded(
            self, gazetteer, central_route, picks, min_pois, max_words):
        # near names lie on the route, far ones over 2 km off it, unknown
        # ones in no gazetteer leg; spellings differ only in case
        story = make_story(marked(*(spell(name) for name, spell in picks)),
                           min_pois=min_pois, max_words=max_words)
        report = validate_story(story, along(central_route), gazetteer)
        named = {name for name, _ in picks}
        grounded = named & set(CENTRAL_ROUTE_NAMES)
        checks = {c.name: c.passed for c in report.structural}
        assert checks == {"min_pois": len(named) >= min_pois,
                          "max_words": story.word_count <= max_words, "markup": True}
        assert report.grounded_fraction == len(grounded) / len(named)
        assert report.overall == (grounded == named and all(checks.values()))
        if report.overall:
            assert any(p.verdict == GROUNDED for p in report.per_poi)

    @given(t1=st.integers(0, 8000), t2=st.integers(0, 8000))
    @settings(max_examples=40, deadline=None)
    def test_raising_the_threshold_never_ungrounds(self, gazetteer, central_route,
                                                   t1, t2):
        if t1 > t2:
            t1, t2 = t2, t1
        story = make_story(marked("Ribeira", "Jardim do Morro",
                                  "Estádio do Dragão", "Foz do Douro"))

        def grounded_at(t):
            rule = along(central_route, float(t))
            report = validate_story(story, rule, gazetteer)
            return {p.name for p in report.per_poi if p.verdict == GROUNDED}

        assert grounded_at(t1) <= grounded_at(t2)


class TestInjectionSeparation:
    def test_flagged_set_is_exactly_the_planted_set(self, gazetteer, central_route):
        story = make_story(marked(*CENTRAL_ROUTE_NAMES, *FAR_POI_NAMES))
        report = validate_story(story, along(central_route), gazetteer)
        flagged = {p.name for p in report.flagged()}
        assert flagged == set(FAR_POI_NAMES)
        precision = len(flagged & set(FAR_POI_NAMES)) / len(flagged)
        recall = len(flagged & set(FAR_POI_NAMES)) / len(FAR_POI_NAMES)
        assert precision == 1.0 and recall == 1.0
        assert report.grounded_fraction == pytest.approx(13 / 18)

    def test_same_story_same_report(self, gazetteer, central_route):
        story = make_story(marked(*CENTRAL_ROUTE_NAMES[:3], *FAR_POI_NAMES[:2]))
        rule = along(central_route)
        a = validate_story(story, rule, gazetteer)
        b = validate_story(story, rule, gazetteer)
        assert a == b


class TestFeedback:
    def build_report(self, gazetteer, central_route):
        story = make_story(marked("Foz do Douro", "Atlantis Pier", "Ribeira"),
                           min_pois=5)
        return validate_story(story, along(central_route), gazetteer)

    def test_names_every_problem_in_report_order(self, gazetteer, central_route):
        report = self.build_report(gazetteer, central_route)
        text = feedback_text(report)
        d = next(p.distance_m for p in report.per_poi if p.name == "Foz do Douro")
        assert f"Do not mention Foz do Douro: it is {d:.0f} m away from the route data." in text
        assert "Do not mention Atlantis Pier: it could not be located." in text
        assert "Fix min_pois: 3 distinct POIs, need at least 5." in text
        assert "Ribeira" not in text
        assert text.index("Foz do Douro") < text.index("Atlantis Pier") < text.index("min_pois")

    def test_deterministic(self, gazetteer, central_route):
        report = self.build_report(gazetteer, central_route)
        assert feedback_text(report) == feedback_text(report)

    def test_passing_report_refuses_feedback(self):
        report = ValidationReport(per_poi=[], structural=[],
                                  grounded_fraction=1.0, overall=True)
        with pytest.raises(ValueError):
            feedback_text(report)

    def test_malformed_story_report_feeds_back_the_markup_failure(self):
        report = malformed_story_report("story contains no POI markup spans")
        assert not report.overall
        assert report.grounded_fraction == 0.0
        assert feedback_text(report) == \
            "Fix markup: story contains no POI markup spans."


class TestExports:
    def test_dict_shape(self, gazetteer, central_route):
        story = make_story(marked("Ribeira", "Atlantis Pier"))
        report = validate_story(story, along(central_route), gazetteer)
        d = report_to_dict(report)
        assert d["overall"] == "fail"
        assert d["grounded_fraction"] == pytest.approx(0.5)
        by_name = {r["name"]: r for r in d["per_poi"]}
        assert by_name["Ribeira"]["verdict"] == GROUNDED
        assert by_name["Ribeira"]["lon"] is not None
        assert by_name["Atlantis Pier"] == {
            "name": "Atlantis Pier", "verdict": UNGEOCODABLE,
            "distance_m": None, "lon": None, "lat": None}
        assert {r["check"] for r in d["structural"]} == \
            {"min_pois", "max_words", "markup"}

    def test_summary_layout(self, gazetteer, central_route):
        story = make_story(marked("Ribeira", "Foz do Douro"))
        report = validate_story(story, along(central_route), gazetteer)
        lines = summarize_report(report).splitlines()
        assert lines[0] == "validation: FAIL"
        assert lines[1] == ("POIs: 1 grounded, 1 flagged, 0 ungeocodable "
                            "(grounded fraction 0.50)")
        assert lines[2] == "  - Ribeira: grounded (0 m)"
        assert lines[3].startswith("  - Foz do Douro: spatial_hallucination (")
        assert "checks:" in lines
        assert any(l.startswith("  - min_pois: ok") for l in lines)


class TestAdversary:
    """The validator against ``tests/adversary.py``'s attacks on a passing draft."""

    def test_the_draft_passes_at_its_quota(self):
        report = adversary.grade(adversary.draft())
        assert report.overall
        assert len(report.per_poi) == adversary.SPEC.min_pois

    @pytest.mark.parametrize("attack", adversary.ATTACKS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_attacked_draft_fails(self, attack, data):
        text = data.draw(attack(adversary.draft()), label="attacked draft")
        assert not adversary.grade(text).overall
