"""Text analysis: tokenisation, stop words, light stemming, hashtags.

The paper's Solr instances index the *stemmed text* of tweets and Facebook
posts; hashtags are extracted into their own field (Figure 2,
``entities.hashtags``).  This module provides the equivalent analysis
chain for French and English text, implemented without external
dependencies (a light suffix-stripping stemmer is enough for the
vocabulary analytics of Figure 3).
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

#: Entries kept by the memos of :func:`normalize` and :func:`stem`: both
#: are pure and a corpus repeats a few thousand distinct tokens, so the
#: bound only caps what a stream of never-repeating tokens can hold.
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
        stop = self.stopwords()
        tokens: list[str] = []
        for raw in _TOKEN_RE.findall(cleaned):
            if raw.startswith("@"):
                continue
            if raw.startswith("#"):
                if self.keep_hashtags:
                    tokens.append(raw.lower())
                continue
            token = normalize(raw)
            if len(token) < MIN_TOKEN_LENGTH or token in stop or token.isdigit():
                continue
            tokens.append(token)
        stems = tuple(stem(t, self.language) if not t.startswith("#") else t for t in tokens)
        return AnalyzedText(tokens=tuple(tokens), stems=stems,
                            hashtags=hashtags, mentions=mentions, urls=urls)

    def stems(self, text: str) -> list[str]:
        """Shortcut returning only the stemmed tokens of ``text``."""
        return list(self.analyze(text).stems)


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
