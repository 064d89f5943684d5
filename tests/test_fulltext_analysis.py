"""Unit tests for text analysis: tokenisation, stemming, hashtags."""

from repro.fulltext import (
    AnalyzedText,
    Analyzer,
    extract_hashtags,
    extract_mentions,
    normalize,
    stem,
    tokenize,
)


class TestNormalization:
    def test_lowercase(self):
        assert normalize("Paris") == "paris"

    def test_accents_stripped(self):
        assert normalize("solidarité") == "solidarite"
        assert normalize("État") == "etat"

    def test_quotes_and_elisions_trimmed(self):
        assert normalize("l'état'") == "etat"
        assert normalize("d'urgence") == "urgence"


class TestStemming:
    def test_french_plural(self):
        assert stem("attentats") == stem("attentat")

    def test_french_nominalisation(self):
        assert stem("prolongation") == stem("prolongations")

    def test_short_tokens_untouched(self):
        assert stem("loi") == "loi"

    def test_english_suffixes(self):
        assert stem("working", language="en") == "work"
        assert stem("nations", language="en") == "nation"

    def test_never_shorter_than_four_chars(self):
        assert len(stem("urgences")) >= 4


class TestHashtagsAndMentions:
    def test_extract_hashtags(self):
        assert extract_hashtags("Solidarité #SIA2016 et #Agriculture !") == ["sia2016", "agriculture"]

    def test_extract_mentions(self):
        assert extract_mentions("Bravo @fhollande et @mlepen") == ["fhollande", "mlepen"]

    def test_no_hashtags(self):
        assert extract_hashtags("rien du tout") == []


class TestAnalyzer:
    def test_analyze_returns_all_components(self):
        analyzer = Analyzer()
        analyzed = analyzer.analyze("Je suis à Paris aujourd'hui pour la solidarité #SIA2016 "
                                    "avec @fhollande http://example.org/x")
        assert isinstance(analyzed, AnalyzedText)
        assert "sia2016" in analyzed.hashtags
        assert "fhollande" in analyzed.mentions
        assert analyzed.urls == ("http://example.org/x",)

    def test_stopwords_removed(self):
        analyzer = Analyzer()
        stems = analyzer.stems("je suis pour la solidarité et le travail")
        assert "je" not in stems and "pour" not in stems
        assert any(s.startswith("solidarit") for s in stems)

    def test_hashtags_kept_as_tokens_by_default(self):
        analyzer = Analyzer()
        assert "#sia2016" in analyzer.stems("au salon #SIA2016")

    def test_hashtags_can_be_dropped(self):
        analyzer = Analyzer(keep_hashtags=False)
        assert all(not s.startswith("#") for s in analyzer.stems("au salon #SIA2016"))

    def test_mentions_never_tokenised(self):
        analyzer = Analyzer()
        assert all("fhollande" not in s for s in analyzer.stems("merci @fhollande"))

    def test_numbers_dropped(self):
        analyzer = Analyzer()
        assert "2016" not in analyzer.stems("en 2016 le chomage")

    def test_extra_stopwords(self):
        analyzer = Analyzer(extra_stopwords=frozenset({"solidarite"}))
        assert all(not s.startswith("solidarit") for s in analyzer.stems("la solidarité nationale"))

    def test_english_analyzer(self):
        analyzer = Analyzer(language="en")
        stems = analyzer.stems("The workers are working in the factories")
        assert "the" not in stems
        assert "work" in stems

    def test_tokenize_plain(self):
        assert tokenize("État d'urgence!") == ["etat", "urgence"]

    def test_same_stem_for_singular_plural_in_corpus(self):
        analyzer = Analyzer()
        a = analyzer.stems("les perquisitions abusives")
        b = analyzer.stems("une perquisition abusive")
        assert set(a) & set(b)


class TestMemoisedAnalysis:
    def test_memos_are_transparent(self):
        # ``normalize`` is not idempotent ("l'l'eau" sheds one elision per
        # pass), so the memo must key on the raw token, not on its result.
        for token in ["L'État", "d'urgence", "Agriculteurs", "l'l'eau", "-x-", "#SIA2016"]:
            assert normalize(token) == normalize.__wrapped__(token)
            for language in ("fr", "en"):
                assert stem(token, language) == stem.__wrapped__(token, language)
        assert normalize("l'l'eau") == "l'eau" and stem(normalize("l'l'eau")) == "eau"

    def test_memos_are_bounded(self):
        assert normalize.cache_info().maxsize is not None
        assert stem.cache_info().maxsize is not None

    def test_stopwords_follow_the_analyzer_fields(self):
        analyzer = Analyzer()
        assert analyzer.stopwords() is analyzer.stopwords()
        analyzer.extra_stopwords = frozenset({"budget"})
        assert "budget" in analyzer.stopwords() and "le" in analyzer.stopwords()
        analyzer.language = "en"
        assert "the" in analyzer.stopwords() and "le" not in analyzer.stopwords()
