import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STORY18_NAMES, STORY_FIXTURE
from helpers import reinsert_markup
from trajstory.errors import (ConfigurationError, MalformedStoryError,
                              ParseError, ProtocolError)
from trajstory.gazetteer import POI
from trajstory.geo import GeoPoint
from trajstory.story import (MARKUP_CLOSE, MARKUP_OPEN, Mention, NarrativeSpec,
                             RemoteBackend, Story, StoryContext, TOKEN_ENV_VAR,
                             TemplateBackend, build_prompt, count_words,
                             extract_mentions, generate_story, strip_markup)


def make_ctx(n_pois=20, region="Porto", summary="endpoints: 400", blurb=None):
    pois = [POI(name=f"Spot {chr(65 + i)}",
                location=GeoPoint(-8.61 + i * 1e-3, 41.15),
                blurb=blurb)
            for i in range(n_pois)]
    return StoryContext(data_summary=summary, candidate_pois=pois,
                        region_name=region)


class TestFixtureStory:
    """Frozen facts about the checked-in sample narrative."""

    def test_mention_names_in_reading_order(self):
        text = STORY_FIXTURE.read_text(encoding="utf-8")
        names = [m.name for m in extract_mentions(text)]
        assert names == list(STORY18_NAMES)

    def test_word_count_excludes_markup(self):
        text = STORY_FIXTURE.read_text(encoding="utf-8")
        assert count_words(text) == 195
        assert len(text.split()) == 213  # raw tokens, markup included


class TestMarkup:
    def test_offsets_cover_the_whole_span(self):
        text = "Start [[POI: Bolhão Market]] end."
        (m,) = extract_mentions(text)
        assert m == Mention(name="Bolhão Market", start=6, end=28)
        assert text[m.start:m.end] == "[[POI: Bolhão Market]]"

    def test_name_whitespace_is_trimmed(self):
        (m,) = extract_mentions("[[POI:   Ribeira  ]]")
        assert m.name == "Ribeira"

    @pytest.mark.parametrize("bad", [
        "text [[POI: never closed",
        "a [[POI: one [[POI: two]] b",
        "x [[POI:   ]] y",
    ])
    def test_malformed_spans_raise_with_offset(self, bad):
        with pytest.raises(ParseError) as err:
            extract_mentions(bad)
        assert f"at offset {bad.index(MARKUP_OPEN)}" in str(err.value)

    def test_strip_replaces_spans_with_bare_names(self):
        text = "Go to [[POI: Ribeira]] then [[POI: Bolhão Market]]."
        assert strip_markup(text) == "Go to Ribeira then Bolhão Market."

    def test_count_words_survives_malformed_markup(self):
        assert count_words("three words [[POI: broken") == 4

    names = st.sampled_from(list(STORY18_NAMES))
    filler = st.text(alphabet="abc ,.", min_size=1, max_size=12)

    @given(st.lists(st.tuples(filler, names), min_size=1, max_size=8), filler)
    @settings(max_examples=60)
    def test_extract_and_round_trip(self, pieces, tail):
        text = "".join(f"{gap}{MARKUP_OPEN} {name}{MARKUP_CLOSE}"
                       for gap, name in pieces) + tail
        mentions = extract_mentions(text)
        assert [m.name for m in mentions] == [name for _, name in pieces]
        assert reinsert_markup(strip_markup(text), mentions) == text


class TestSpecValidation:
    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            NarrativeSpec(mode="interpretive_dance")

    @pytest.mark.parametrize("kw", [{"max_words": 0}, {"min_pois": -1}])
    def test_bad_bounds(self, kw):
        with pytest.raises(ValueError):
            NarrativeSpec(**kw)

    def test_context_needs_a_summary(self):
        with pytest.raises(ValueError):
            StoryContext(data_summary="")


class TestPrompt:
    def test_core_sections_present(self):
        spec = NarrativeSpec(audience="a first time visitor of the city",
                             max_words=150, min_pois=15)
        ctx = make_ctx(2, summary="endpoints in area: 400")
        prompt = build_prompt(spec, ctx)
        assert "a short data story about Porto" in prompt
        assert "Data summary:\nendpoints in area: 400" in prompt
        assert "- Spot A (-8.6100, 41.1500)" in prompt
        assert "Your target audience is a first time visitor of the city." in prompt
        assert "Include at least 15 POIs." in prompt
        assert "Use at most 150 words." in prompt
        assert f"exactly as {MARKUP_OPEN} name{MARKUP_CLOSE}" in prompt

    def test_blurbs_only_when_asked(self):
        ctx = make_ctx(1, blurb="a riverside arcade")
        with_b = build_prompt(NarrativeSpec(include_blurbs=True), ctx)
        without = build_prompt(NarrativeSpec(), ctx)
        assert "a riverside arcade" in with_b
        assert "a riverside arcade" not in without

    def test_extra_instructions_come_last_in_order(self):
        spec = NarrativeSpec(extra_instructions=["mention the river", "stay short"])
        prompt = build_prompt(spec, make_ctx(1))
        tail = prompt.split("Additional instructions:\n")[1]
        assert tail == "- mention the river\n- stay short\n"

    def test_deterministic(self):
        spec = NarrativeSpec()
        ctx = make_ctx(5)
        assert build_prompt(spec, ctx) == build_prompt(spec, ctx)


class TestTemplateBackend:
    def test_output_honors_its_own_contract(self):
        spec = NarrativeSpec(max_words=150, min_pois=15)
        out = TemplateBackend().generate("", make_ctx(20), spec)
        mentions = extract_mentions(out)
        assert len(mentions) >= 15
        assert count_words(out) <= 150

    def test_deterministic_and_prompt_blind(self):
        backend = TemplateBackend()
        spec = NarrativeSpec(min_pois=3)
        ctx = make_ctx(5)
        a = backend.generate("prompt one", ctx, spec)
        b = backend.generate("completely different prompt", ctx, spec)
        assert a == b

    def test_walks_candidates_in_given_order(self):
        out = TemplateBackend().generate("", make_ctx(4), NarrativeSpec(min_pois=4, max_words=80))
        names = [m.name for m in extract_mentions(out)]
        assert names == ["Spot A", "Spot B", "Spot C", "Spot D"]
        assert "First comes" in out and "Then" in out

    def test_too_few_candidates(self):
        with pytest.raises(ConfigurationError,
                           match="raise hotspot_threshold_m or lower min_pois"):
            TemplateBackend().generate("", make_ctx(3), NarrativeSpec(min_pois=10))

    def test_word_cap_too_tight_for_min_pois(self):
        with pytest.raises(ConfigurationError, match="word cap"):
            TemplateBackend().generate("", make_ctx(5), NarrativeSpec(min_pois=5, max_words=45))

    def test_blurbs_used_when_budget_allows_and_dropped_when_not(self):
        blurb = "a granite church with twin towers over the old town"
        roomy = NarrativeSpec(min_pois=1, max_words=200, include_blurbs=True)
        tight = NarrativeSpec(min_pois=3, max_words=54, include_blurbs=True)
        assert blurb in TemplateBackend().generate("", make_ctx(1, blurb=blurb), roomy)
        squeezed = TemplateBackend().generate("", make_ctx(3, blurb=blurb), tight)
        assert blurb not in squeezed
        assert len(extract_mentions(squeezed)) == 3

    @given(n=st.integers(4, 25), min_pois=st.integers(0, 15),
           max_words=st.integers(135, 250))
    @settings(max_examples=50)
    def test_constraints_hold_when_feasible(self, n, min_pois, max_words):
        if min_pois > n:
            min_pois = n
        spec = NarrativeSpec(min_pois=min_pois, max_words=max_words)
        out = TemplateBackend().generate("", make_ctx(n), spec)
        assert count_words(out) <= max_words
        assert len(extract_mentions(out)) >= max(min_pois, 1)

    @given(mode=st.sampled_from(["heatmap", "single_trajectory"]), n=st.integers(1, 25),
           data=st.data(), max_words=st.integers(1, 250), include_blurbs=st.booleans(),
           blurb=st.sampled_from([None, "a granite church with twin towers"]))
    @settings(max_examples=100)
    def test_every_story_is_three_acts(self, mode, n, data, max_words, include_blurbs,
                                       blurb):
        min_pois = data.draw(st.integers(0, n + 1), label="min_pois")
        spec = NarrativeSpec(mode=mode, min_pois=min_pois, max_words=max_words,
                             include_blurbs=include_blurbs)
        try:
            out = TemplateBackend().generate("", make_ctx(n, blurb=blurb), spec)
        except ConfigurationError:
            return          # too few candidates, or no room for the quota
        assert out.endswith("\n")
        acts = out[:-1].split("\n\n")
        assert len(acts) == 3
        assert all(act.strip() and "\n" not in act for act in acts)


class TestRemoteBackend:
    def run(self, monkeypatch, payload, token=None):
        calls = []

        def post(url, body, headers):
            calls.append((url, body, headers))
            return payload

        if token is None:
            monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(TOKEN_ENV_VAR, token)
        backend = RemoteBackend("https://story.example/v1", max_tokens=256,
                                temperature=0.2, post=post)
        text = backend.generate("the prompt", make_ctx(1), NarrativeSpec())
        return backend, text, calls

    def test_posts_prompt_and_sampling_knobs(self, monkeypatch):
        backend, text, calls = self.run(monkeypatch, {"text": "hi [[POI: A]]"})
        assert text == "hi [[POI: A]]"
        assert backend.backend_id == "remote:https://story.example/v1"
        ((url, body, headers),) = calls
        assert url == "https://story.example/v1"
        assert body == {"prompt": "the prompt", "max_tokens": 256,
                        "temperature": 0.2}
        assert "Authorization" not in headers

    def test_bearer_token_from_environment_only(self, monkeypatch):
        _, _, calls = self.run(monkeypatch, {"text": "x"}, token="s3cret")
        assert calls[0][2]["Authorization"] == "Bearer s3cret"

    @pytest.mark.parametrize("payload", [[], {"output": "x"}, {"text": 5}])
    def test_bad_payload_shape(self, monkeypatch, payload):
        with pytest.raises(ProtocolError):
            self.run(monkeypatch, payload)


class TestGenerateStory:
    def test_happy_path_builds_a_parsed_story(self):
        spec = NarrativeSpec(min_pois=3)
        ctx = make_ctx(5)
        story = generate_story(build_prompt(spec, ctx), TemplateBackend(), spec, ctx)
        assert isinstance(story, Story)
        assert story.backend_id == "template"
        assert story.word_count == count_words(story.text)
        assert [m.name for m in story.mentions][:2] == ["Spot A", "Spot B"]

    class _Fixed:
        backend_id = "fixed"

        def __init__(self, text):
            self.text = text

        def generate(self, prompt, ctx, spec):
            return self.text

    @pytest.mark.parametrize("text", ["no markup at all", "broken [[POI: span"])
    def test_unusable_output_raises(self, text):
        spec = NarrativeSpec(min_pois=0)
        ctx = make_ctx(1)
        with pytest.raises(MalformedStoryError):
            generate_story("p", self._Fixed(text), spec, ctx)


# Hostile markup: text built from the pieces of a span, NUL, a non-ASCII
# letter and line ends, so openers go unclosed, nest, close twice or hold
# nothing but blanks.
MARKUP_PIECES = [MARKUP_OPEN, MARKUP_CLOSE, "[[", "\x00", "é", "\n", " ", "Ribeira"]
hostile_markup = st.lists(st.sampled_from(MARKUP_PIECES), max_size=40).map("".join)


class TestMarkupFuzz:
    @settings(max_examples=400, deadline=None)
    @given(text=hostile_markup)
    def test_parses_or_raises_a_parse_error(self, text):
        try:
            mentions = extract_mentions(text)
        except ParseError:
            with pytest.raises(ParseError):
                strip_markup(text)
        else:
            last = 0
            for m in mentions:
                span = text[m.start:m.end]
                assert m.start >= last and span.startswith(MARKUP_OPEN)
                assert span.endswith(MARKUP_CLOSE) and MARKUP_OPEN not in span[1:]
                assert m.name and m.name == span[len(MARKUP_OPEN):-len(MARKUP_CLOSE)].strip()
                last = m.end
            assert len(strip_markup(text)) <= len(text)
        assert count_words(text) >= 0
