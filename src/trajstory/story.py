"""Build story prompts, run a story backend, and parse the result.

Generated narratives mark every point of interest as ``[[POI: name]]``;
plain text instead of color highlighting so that the validator can parse
mentions back out. Three backends share one protocol: a deterministic
template (offline tests and demos), a generic HTTP text-completion client,
and the scripted playback backend in :mod:`trajstory.synth`.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Protocol

from .errors import ConfigurationError, MalformedStoryError, ParseError, ProtocolError
from .gazetteer import POI, request_json

MARKUP_OPEN = "[[POI:"
MARKUP_CLOSE = "]]"

MODES = ("heatmap", "single_trajectory")


@dataclass
class NarrativeSpec:
    """The constraint contract a story is generated under."""

    mode: str = "heatmap"
    audience: str = "a professional analyst"
    max_words: int = 150
    min_pois: int = 15
    tone: str = "neutral professional"
    include_blurbs: bool = False
    extra_instructions: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown story mode {self.mode!r}; expected one of {MODES}")
        if self.max_words <= 0:
            raise ValueError(f"max_words must be positive, got {self.max_words}")
        if self.min_pois < 0:
            raise ValueError(f"min_pois must be >= 0, got {self.min_pois}")


@dataclass
class StoryContext:
    """Everything the backend may draw on: data digest, candidates, region."""

    data_summary: str
    candidate_pois: list[POI] = field(default_factory=list)
    region_name: str = "the city"

    def __post_init__(self):
        if not self.data_summary:
            raise ValueError("data_summary must be non-empty")


@dataclass(frozen=True)
class Mention:
    """One ``[[POI: name]]`` span; offsets cover the whole markup block."""

    name: str
    start: int
    end: int


@dataclass
class Story:
    text: str
    mentions: list[Mention]
    word_count: int
    spec: NarrativeSpec
    backend_id: str


class StoryBackend(Protocol):
    backend_id: str

    def generate(self, prompt: str, ctx: StoryContext, spec: NarrativeSpec) -> str: ...


# -- markup ----------------------------------------------------------------

def extract_mentions(text: str) -> list[Mention]:
    """Every well-formed markup span, in document order.

    An opener without a matching close before the next opener (or the end of
    text) raises ParseError with the opener's offset.
    """
    mentions = []
    i = 0
    while True:
        start = text.find(MARKUP_OPEN, i)
        if start == -1:
            return mentions
        close = text.find(MARKUP_CLOSE, start + len(MARKUP_OPEN))
        nxt = text.find(MARKUP_OPEN, start + len(MARKUP_OPEN))
        if close == -1 or (nxt != -1 and nxt < close):
            raise ParseError(f"unclosed POI span at offset {start}")
        name = text[start + len(MARKUP_OPEN):close].strip()
        if not name:
            raise ParseError(f"empty POI span at offset {start}")
        mentions.append(Mention(name=name, start=start, end=close + len(MARKUP_CLOSE)))
        i = close + len(MARKUP_CLOSE)


def strip_markup(text: str) -> str:
    """Replace each markup span by the bare POI name."""
    out = []
    last = 0
    for m in extract_mentions(text):
        out.append(text[last:m.start])
        out.append(m.name)
        last = m.end
    out.append(text[last:])
    return "".join(out)


def count_words(text: str) -> int:
    """Whitespace-run word count with markup delimiters removed first.

    Hyphenated tokens count once. Malformed markup falls back to counting
    the raw text; counting must never raise.
    """
    try:
        plain = strip_markup(text)
    except ParseError:
        plain = text
    return len(plain.split())


# -- prompt ----------------------------------------------------------------

def build_prompt(spec: NarrativeSpec, ctx: StoryContext) -> str:
    """Deterministic prompt: data digest, candidates, constraints, feedback.

    Extra instructions land last and in order, so retry feedback is always
    the freshest thing the model reads.
    """
    lines = [f"You are writing a short data story about {ctx.region_name}.", ""]
    lines += ["Data summary:", ctx.data_summary.rstrip("\n"), ""]
    if ctx.candidate_pois:
        lines.append("Known points of interest (lon, lat):")
        for poi in ctx.candidate_pois:
            entry = f"- {poi.name} ({poi.location.lon:.4f}, {poi.location.lat:.4f})"
            if spec.include_blurbs and poi.blurb:
                entry += f": {poi.blurb}"
            lines.append(entry)
        lines.append("")
    lines += [
        "Write the story with cinematic storytelling techniques. "
        f"Your target audience is {spec.audience}. "
        f"Use a {spec.tone} tone.",
        "Cast the data as characters: one hero whose journey the story follows, "
        "sidekicks that add context, and antagonists that stand in the hero's way. "
        "Tell it in three acts. "
        "Act I: introduce the hero and their goal. "
        "Act II: present the challenges. "
        "Act III: resolve the narrative and draw out the insights.",
        f"Include at least {spec.min_pois} POIs. Highlight the POIs. "
        f"Use at most {spec.max_words} words. "
        f"Mark every point of interest exactly as {MARKUP_OPEN} name{MARKUP_CLOSE}.",
    ]
    if spec.extra_instructions:
        lines.append("")
        lines.append("Additional instructions:")
        lines.extend(f"- {instr}" for instr in spec.extra_instructions)
    return "\n".join(lines) + "\n"


# -- template backend ------------------------------------------------------

_ACT1 = {
    "heatmap": ("All day the taxis of {region} trace the same quiet truth: "
                "every journey has a destination, and the destinations crowd together."),
    "single_trajectory": ("A single taxi crosses {region}, and its route "
                          "turns the streets it threads into a story."),
}
_ACT3 = {
    "heatmap": ("By nightfall the pattern holds: the busy corners stay busy, "
                "and the map of endings shows where the city truly lives."),
    "single_trajectory": ("At the last stop the meter goes quiet; the route left "
                          "behind is the city drawn in one unbroken line."),
}
_CONNECTIVES = ("First comes", "Then", "After that,", "Close by,", "Further on,")


class TemplateBackend:
    """Deterministic three-act story over the candidate POIs; ignores the prompt.

    Act II walks the candidates in the order given (discovery emits them in
    evidence order), marking each one and attaching blurbs while the word
    budget allows; blurbs are the first thing dropped to stay under
    ``max_words``. It marks at least one place even for ``min_pois`` 0: a
    story without markup is malformed.
    """

    backend_id = "template"

    def generate(self, prompt: str, ctx: StoryContext, spec: NarrativeSpec) -> str:
        quota = max(spec.min_pois, 1)
        if len(ctx.candidate_pois) < quota:
            threshold = "trajectory" if spec.mode == "single_trajectory" else "hotspot"
            raise ConfigurationError(
                f"only {len(ctx.candidate_pois)} candidate POIs for min_pois={spec.min_pois}; "
                f"raise {threshold}_threshold_m" + (" or lower min_pois" if spec.min_pois else ""))
        act1 = _ACT1[spec.mode].format(region=ctx.region_name)
        act3 = _ACT3[spec.mode]
        budget = spec.max_words - count_words(act1) - count_words(act3)

        sentences: list[str] = []
        for i, poi in enumerate(ctx.candidate_pois):
            conn = _CONNECTIVES[i % len(_CONNECTIVES)]
            marked = f"{MARKUP_OPEN} {poi.name}{MARKUP_CLOSE}"
            variants = [f"{conn} {marked}."]
            if spec.include_blurbs and poi.blurb:
                variants.insert(0, f"{conn} {marked}, {poi.blurb}.")
            if len(sentences) < quota:
                variants.append(f"{marked}.")
            chosen = next((v for v in variants if count_words(v) <= budget), None)
            if chosen is None:
                if len(sentences) >= quota:
                    break
                raise ConfigurationError(
                    f"word cap {spec.max_words} cannot fit {quota} POI mentions")
            sentences.append(chosen)
            budget -= count_words(chosen)

        return "\n\n".join([act1, " ".join(sentences), act3]) + "\n"


# -- remote backend --------------------------------------------------------

TOKEN_ENV_VAR = "TRAJSTORY_BACKEND_TOKEN"

PostFn = Callable[[str, dict, dict], dict]


def _http_post(url: str, body: dict, headers: dict) -> dict:
    return request_json(url, "story backend", timeout=120, body=body, headers=headers)


class RemoteBackend:
    """Generic HTTP text-completion client: prompt in, text out.

    POSTs ``{"prompt", "max_tokens", "temperature"}`` to ``url`` and expects
    ``{"text": ...}`` back. The bearer token comes from the environment
    (``TRAJSTORY_BACKEND_TOKEN``), never from config files. One instance is
    safe to share across threads; it keeps no per-request state.
    """

    def __init__(self, url: str, max_tokens: int = 512, temperature: float = 0.7,
                 post: PostFn | None = None):
        self.backend_id = f"remote:{url}"
        self.url = url
        self.max_tokens = max_tokens
        self.temperature = temperature
        self._post = post or _http_post

    def generate(self, prompt: str, ctx: StoryContext, spec: NarrativeSpec) -> str:
        headers = {}
        token = os.environ.get(TOKEN_ENV_VAR)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {"prompt": prompt, "max_tokens": self.max_tokens,
                "temperature": self.temperature}
        payload = self._post(self.url, body, headers)
        if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
            raise ProtocolError("story backend payload must be a JSON object with a 'text' field")
        return payload["text"]


# -- generation ------------------------------------------------------------

def generate_story(prompt: str, backend: StoryBackend, spec: NarrativeSpec,
                   ctx: StoryContext) -> Story:
    """Run the backend and parse its output into a Story.

    A response without a single well-formed markup span raises
    MalformedStoryError; the caller decides whether to retry.
    """
    raw = backend.generate(prompt, ctx, spec)
    try:
        mentions = extract_mentions(raw)
    except ParseError as exc:
        raise MalformedStoryError(f"story markup is malformed: {exc}") from exc
    if not mentions:
        raise MalformedStoryError("story contains no POI markup spans")
    return Story(text=raw, mentions=mentions, word_count=count_words(raw),
                 spec=spec, backend_id=backend.backend_id)


def story_to_dict(story: Story) -> dict:
    """Structured sidecar for story export."""
    return {
        "backend_id": story.backend_id,
        "word_count": story.word_count,
        "mentions": [{"name": m.name, "start": m.start, "end": m.end}
                     for m in story.mentions],
        "spec": asdict(story.spec),
    }
