"""Text analysis: tokenisation, stop words, light stemming, hashtags.

The paper's Solr instances index the *stemmed text* of tweets and Facebook
posts; hashtags are extracted into their own field (Figure 2,
``entities.hashtags``).  This module provides the equivalent analysis
chain for French and English text, implemented without external
dependencies (a light suffix-stripping stemmer is enough for the
vocabulary analytics of Figure 3).

A corpus repeats a few hundred distinct raw tokens across thousands of
texts, so each raw token is analysed once per analyzer configuration
(:func:`_analyze_token`, a bounded memo): a text costs one tokenising
pass and one memo lookup per token.  :meth:`Analyzer.stems`, what every
store write and query term reads, builds nothing else.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass, field

_TOKEN_RE = re.compile(r"[#@]?[\w'À-ſ-]+", re.UNICODE)
_HASHTAG_RE = re.compile(r"#(\w+)", re.UNICODE)
_MENTION_RE = re.compile(r"@(\w+)", re.UNICODE)
_URL_RE = re.compile(r"https?://\S+")

#: French stop words (small curated list, lowercase, unaccented).
FRENCH_STOPWORDS = frozenset("""
a au aux avec ce ces cette dans de des du elle elles en et eux il ils je la
le les leur leurs lui ma mais me meme mes moi mon ne nos notre nous on ou par
pas pour qu que qui sa se ses son sur ta te tes toi ton tu un une vos votre
vous y d l j n s t c qu est sont etre avoir a ont fait plus tres tout tous
toute toutes comme si bien sans aussi apres avant chez entre vers donc alors
deja encore ici la-bas peu beaucoup nous-memes cet celui celle ceux celles
""".split())

#: English stop words (small curated list).
ENGLISH_STOPWORDS = frozenset("""
a an and are as at be but by for from has have he her his i in is it its me
my not of on or our she so that the their them they this to was we were what
when where which who will with you your
""".split())

_FRENCH_SUFFIXES = (
    "issements", "issement", "atrices", "atrice", "ations", "ation", "ements",
    "ement", "euses", "euse", "istes", "iste", "ances", "ance", "ences",
    "ence", "ments", "ment", "ables", "able", "ibles", "ible", "eurs", "eur",
    "ives", "ive", "ifs", "if", "es", "s", "e",
)

_ENGLISH_SUFFIXES = ("ations", "ation", "ingly", "ings", "ing", "edly", "ed",
                     "ness", "ies", "ly", "es", "s")

#: Entries kept by the memos of :func:`normalize`, :func:`stem` and
#: :func:`_analyze_token`: all are pure and a corpus repeats a few
#: thousand distinct tokens, so the bound only caps what a stream of
#: never-repeating tokens can hold.
_TOKEN_MEMO_SIZE = 1 << 15

#: Shorter normalised tokens are dropped by every :class:`Analyzer`.
MIN_TOKEN_LENGTH = 2


@dataclass(frozen=True)
class AnalyzedText:
    """The result of analysing a raw text."""

    tokens: tuple[str, ...]
    stems: tuple[str, ...]
    hashtags: tuple[str, ...]
    mentions: tuple[str, ...]
    urls: tuple[str, ...] = ()


@dataclass
class Analyzer:
    """Configurable analysis chain (tokenise → normalise → filter → stem)."""

    language: str = "fr"
    keep_hashtags: bool = True
    extra_stopwords: frozenset[str] = field(default_factory=frozenset)

    def stopwords(self) -> frozenset[str]:
        """Return the effective stop-word set for the configured language."""
        base = FRENCH_STOPWORDS if self.language == "fr" else ENGLISH_STOPWORDS
        if not self.extra_stopwords:
            return base
        return base | self.extra_stopwords

    def analyze(self, text: str) -> AnalyzedText:
        """Run the full analysis chain over ``text``."""
        urls = tuple(_URL_RE.findall(text))
        cleaned = _URL_RE.sub(" ", text)
        hashtags = tuple(tag.lower() for tag in _HASHTAG_RE.findall(cleaned))
        mentions = tuple(m.lower() for m in _MENTION_RE.findall(cleaned))
        kept = self._kept(cleaned)
        return AnalyzedText(tokens=tuple(token for token, _ in kept),
                            stems=tuple(stemmed for _, stemmed in kept),
                            hashtags=hashtags, mentions=mentions, urls=urls)

    def stems(self, text: str) -> list[str]:
        """The stemmed tokens of ``text`` (``analyze(text).stems``)."""
        if "http" in text:
            text = _URL_RE.sub(" ", text)
        return [stemmed for _, stemmed in self._kept(text)]

    def _kept(self, cleaned: str) -> list[tuple[str, str]]:
        """``(token, stem)`` of each token of ``cleaned`` (URLs removed)
        that the analysis keeps, in order."""
        language, keep_hashtags, extra = self.language, self.keep_hashtags, self.extra_stopwords
        return [kept for raw in _TOKEN_RE.findall(cleaned)
                if (kept := _analyze_token(raw, language, keep_hashtags, extra)) is not None]


@functools.lru_cache(maxsize=_TOKEN_MEMO_SIZE)
def _analyze_token(raw: str, language: str, keep_hashtags: bool,
                   extra_stopwords: frozenset[str]) -> tuple[str, str] | None:
    """``(token, stem)`` of one raw token under an analyzer's configuration,
    or ``None`` when the analysis drops it: a mention, a hashtag unless
    kept (it is its own stem), a normalised token shorter than
    :data:`MIN_TOKEN_LENGTH`, a stop word or a number."""
    if raw.startswith("@"):
        return None
    if raw.startswith("#"):
        return (raw.lower(), raw.lower()) if keep_hashtags else None
    token = normalize(raw)
    if (len(token) < MIN_TOKEN_LENGTH or token.isdigit() or token in extra_stopwords
            or token in (FRENCH_STOPWORDS if language == "fr" else ENGLISH_STOPWORDS)):
        return None
    return token, stem(token, language)


def tokenize(text: str) -> list[str]:
    """Plain tokenisation (lowercased, accents stripped, no filtering)."""
    return [normalize(t) for t in _TOKEN_RE.findall(text)]


_ELISION_RE = re.compile(r"^(?:l|d|j|n|s|t|c|m|qu)'(.+)$")


@functools.lru_cache(maxsize=_TOKEN_MEMO_SIZE)
def normalize(token: str) -> str:
    """Lowercase a token, strip diacritics (é → e) and French elisions (d'…)."""
    lowered = token.lower().strip("'-")
    decomposed = unicodedata.normalize("NFD", lowered)
    stripped = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")
    elision = _ELISION_RE.match(stripped)
    return elision.group(1) if elision else stripped


@functools.lru_cache(maxsize=_TOKEN_MEMO_SIZE)
def stem(token: str, language: str = "fr") -> str:
    """Light suffix-stripping stemmer.

    Not a full Snowball implementation: it removes the most common
    inflexional suffixes while never shortening a token below four
    characters, which is sufficient to merge singular/plural and verb
    nominalisations in the tag-cloud analytics.
    """
    token = normalize(token)
    suffixes = _FRENCH_SUFFIXES if language == "fr" else _ENGLISH_SUFFIXES
    for suffix in suffixes:
        if token.endswith(suffix) and len(token) - len(suffix) >= 4:
            return token[: -len(suffix)]
    return token


def extract_hashtags(text: str) -> list[str]:
    """Return the hashtags (without ``#``) of ``text``, lowercased."""
    return [t.lower() for t in _HASHTAG_RE.findall(text)]


def extract_mentions(text: str) -> list[str]:
    """Return the @mentions (without ``@``) of ``text``, lowercased."""
    return [t.lower() for t in _MENTION_RE.findall(text)]
