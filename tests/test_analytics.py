"""Unit tests for PMI vocabularies, tag clouds, influence and timelines."""

import pytest

from repro.analytics import (
    GROUP_COLORS,
    GroupVocabulary,
    PMIVocabularyAnalyzer,
    ScoredTerm,
    build_tag_cloud,
    bucket_by_week,
    influence_score,
    per_group_influential,
    rank_influential,
    top_terms_table,
    vocabulary_drift,
    week_index,
    week_of,
    weekly_tag_clouds,
)

CORPUS = [
    ("left", "la solidarite nationale et la protection de la republique"),
    ("left", "protection des citoyens et responsabilite collective"),
    ("left", "la protection sociale est notre responsabilite"),
    ("right", "fermete et autorite pour proteger nos frontieres"),
    ("right", "autorite de l etat et fermete contre le laxisme"),
    ("right", "le retour de l autorite et de l ordre"),
]


class TestPMI:
    def test_group_specific_terms_rank_highest(self):
        vocabularies = PMIVocabularyAnalyzer(min_group_count=2, min_corpus_count=2).analyze(CORPUS)
        left_terms = [t.term for t in vocabularies["left"].top(3)]
        right_terms = [t.term for t in vocabularies["right"].top(3)]
        assert any(t.startswith("protect") or t.startswith("responsabilit") for t in left_terms)
        assert any(t.startswith("autorit") or t.startswith("fermet") for t in right_terms)

    def test_shared_terms_have_pmi_close_to_one(self):
        corpus = CORPUS + [("left", "la france avance"), ("right", "la france avance")]
        vocabularies = PMIVocabularyAnalyzer(min_group_count=1, min_corpus_count=1).analyze(corpus)
        scores = vocabularies["left"].term_scores()
        assert scores.get("franc", scores.get("france", 1.0)) == pytest.approx(1.0, rel=0.6)

    def test_exclusive_term_pmi_equals_corpus_over_group_share(self):
        # A term used only by one group has PMI = N_Q / N_P (per the paper formula).
        vocabularies = PMIVocabularyAnalyzer(min_group_count=2, min_corpus_count=2).analyze(CORPUS)
        for scored in vocabularies["right"].terms:
            if scored.term.startswith("autorit"):
                assert scored.pmi > 1.5
                break
        else:  # pragma: no cover - defensive
            pytest.fail("expected an 'autorite' term in the right-wing vocabulary")

    def test_rare_terms_filtered(self):
        vocabularies = PMIVocabularyAnalyzer(min_group_count=2, min_corpus_count=2).analyze(CORPUS)
        assert all(t.group_count >= 2 for t in vocabularies["left"].terms)

    def test_empty_group_returns_empty_vocabulary(self):
        vocabularies = PMIVocabularyAnalyzer().analyze([("left", "")])
        assert vocabularies["left"].terms == []

    def test_weekly_analysis_splits_by_week(self):
        docs = [("2015-W47", "left", "hommage aux victimes"),
                ("2015-W47", "right", "hommage et fermete"),
                ("2015-W48", "left", "le parlement vote la prolongation"),
                ("2015-W48", "right", "le parlement vote la loi")]
        weekly = PMIVocabularyAnalyzer(min_group_count=1, min_corpus_count=1).analyze_weekly(docs)
        assert sorted(weekly) == ["2015-W47", "2015-W48"]
        assert "left" in weekly["2015-W47"]

    def test_top_terms_table_renders_all_groups(self):
        vocabularies = PMIVocabularyAnalyzer(min_group_count=1, min_corpus_count=1).analyze(CORPUS)
        table = top_terms_table(vocabularies, k=3)
        assert "left" in table and "right" in table


class TestTagCloud:
    def make_vocabularies(self):
        return PMIVocabularyAnalyzer(min_group_count=1, min_corpus_count=1).analyze(CORPUS)

    def test_entries_colored_by_group(self):
        cloud = build_tag_cloud(self.make_vocabularies(), title="test")
        colors = {e.group: e.color for e in cloud.entries}
        assert colors.get("left") == GROUP_COLORS["left"]
        assert colors.get("right") == GROUP_COLORS["right"]

    def test_term_attributed_to_most_distinctive_group(self):
        cloud = build_tag_cloud(self.make_vocabularies(), title="test", terms_per_group=10)
        by_term = {e.term: e for e in cloud.entries}
        for term, entry in by_term.items():
            if term.startswith("autorit"):
                assert entry.group == "right"

    def test_text_rendering(self):
        cloud = build_tag_cloud(self.make_vocabularies(), title="week 1")
        text = cloud.to_text()
        assert "week 1" in text and "[" in text

    def test_svg_rendering(self):
        cloud = build_tag_cloud(self.make_vocabularies(), title="week 1 <svg>")
        svg = cloud.to_svg()
        assert svg.startswith("<svg") and "&lt;svg&gt;" in svg

    def test_weekly_tag_clouds_ordered(self):
        weekly = {"2015-W48": self.make_vocabularies(), "2015-W47": self.make_vocabularies()}
        clouds = weekly_tag_clouds(weekly)
        assert [c.title for c in clouds] == ["2015-W47", "2015-W48"]

    def test_cloud_does_not_depend_on_the_group_order(self):
        # "etat" ties between two groups, and three terms tie on weight.
        scored = {"left": [("etat", 2.0), ("loi", 1.5)],
                  "right": [("etat", 2.0), ("ordre", 1.5)],
                  "center": [("vote", 1.5)]}
        vocabularies = {group: GroupVocabulary(group, [ScoredTerm(term, pmi, 2, 4)
                                                       for term, pmi in terms])
                        for group, terms in scored.items()}
        forward = build_tag_cloud(vocabularies, title="w")
        backward = build_tag_cloud(dict(reversed(vocabularies.items())), title="w")
        assert forward.entries == backward.entries
        assert [(e.term, e.group) for e in forward.entries] == [
            ("etat", "left"), ("vote", "center"), ("loi", "left"), ("ordre", "right")]

    def test_empty_cloud_text(self):
        from repro.analytics import TagCloud

        assert "(empty)" in TagCloud(title="empty").to_text()


class TestInfluence:
    TWEETS = [
        {"text": "a", "author": "x", "group": "left", "retweet_count": 100, "favorite_count": 10},
        {"text": "b", "author": "y", "group": "right", "retweet_count": 500, "favorite_count": 50},
        {"text": "c", "author": "z", "group": "left", "retweet_count": 5, "favorite_count": 2},
    ]

    def test_score_monotone_in_retweets(self):
        assert influence_score(100, 0) > influence_score(10, 0)
        assert influence_score(0, 0, followers=1000) > 0

    def test_ranking(self):
        ranked = rank_influential(self.TWEETS, top=2)
        assert [t.author for t in ranked] == ["y", "x"]

    def test_per_group(self):
        by_group = per_group_influential(self.TWEETS, top_per_group=1)
        assert by_group["left"][0].author == "x"
        assert by_group["right"][0].author == "y"

    def test_missing_counters_default_to_zero(self):
        ranked = rank_influential([{"text": "t", "author": "a", "group": "g"}])
        assert ranked[0].score == 0.0


class TestTimeline:
    def test_week_of_iso_label(self):
        assert week_of("2015-11-16") == "2015-W47"
        assert week_of("2015-11-22T23:00:00") == "2015-W47"
        assert week_of("2015-11-23") == "2015-W48"

    def test_week_index(self):
        assert week_index("2015-11-16", "2015-11-16") == 0
        assert week_index("2015-11-16", "2015-12-07") == 3

    def test_bucket_by_week(self):
        records = [{"created_at": "2015-11-16T10:00:00"}, {"created_at": "2015-11-24"},
                   {"created_at": None}]
        buckets = bucket_by_week(records)
        assert sorted(buckets) == ["2015-W47", "2015-W48"]

    def test_invalid_timestamp_raises(self):
        with pytest.raises(ValueError):
            week_of("not a date")

    def test_vocabulary_drift_detects_change(self):
        analyzer = PMIVocabularyAnalyzer(min_group_count=1, min_corpus_count=1)
        weekly = analyzer.analyze_weekly([
            ("2015-W47", "left", "hommage victimes solidarite deuil " * 3),
            ("2015-W48", "left", "parlement vote prolongation loi " * 3),
        ])
        drifts = vocabulary_drift(weekly, top_k=5)
        assert len(drifts) == 1
        assert drifts[0].jaccard < 0.5
        assert drifts[0].new_terms
