"""Synthetic tweet and Facebook-post generation.

Tweets follow the JSON shape of the paper's Figure 2 (``created_at``,
``id``, ``text``, nested ``user`` object, ``retweet_count``,
``favorite_count``, ``entities.hashtags``).  The generator is
deterministic (seeded) and topic-aware: each tweet mixes its topic's
shared vocabulary, the vocabulary of the week's phase, the author group's
slant and neutral filler, so per-group weekly PMI rankings reproduce the
discourse drift of Figure 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from typing import Iterable, Sequence

from repro.datasets.politicians import Politician
from repro.datasets.vocabulary import FILLER_TERMS, STATE_OF_EMERGENCY, Topic

#: Default start date of the synthetic collection (the paper's corpus starts
#: in June 2015; the state-of-emergency weeks start mid-November 2015).
DEFAULT_START = date(2015, 11, 16)

#: Share of on-topic tweets that carry the topic's hashtag.
HASHTAG_PROBABILITY = 0.75
#: Share of tweets made of filler words only.
OFF_TOPIC_PROBABILITY = 0.2
#: Words drawn per tweet (before the hashtag).
WORDS_PER_TWEET = 14


@dataclass(frozen=True)
class Tweet:
    """One synthetic tweet, one :meth:`to_json` call away from Figure 2.

    ``week``, ``group`` and ``party_id`` are generator-side metadata used
    by the flattened full-text/analytics path; they are *not* part of the
    tweet's JSON shape and are therefore excluded from :meth:`to_json`.
    """

    tweet_id: int
    created_at: str
    text: str
    user_id: int
    user_name: str
    screen_name: str
    user_description: str
    followers_count: int
    retweet_count: int
    favorite_count: int
    hashtags: tuple[str, ...] = ()
    urls: tuple[str, ...] = ()
    week: str = ""
    group: str = ""
    party_id: str = ""

    def to_json(self) -> dict:
        """The tweet as a native JSON document, exactly Figure 2's shape."""
        return {
            "created_at": self.created_at,
            "id": self.tweet_id,
            "text": self.text,
            "user": {
                "id": self.user_id,
                "name": self.user_name,
                "screen_name": self.screen_name,
                "description": self.user_description,
                "followers_count": self.followers_count,
            },
            "retweet_count": self.retweet_count,
            "favorite_count": self.favorite_count,
            "entities": {"hashtags": list(self.hashtags), "urls": list(self.urls)},
        }

    def record(self) -> dict:
        """Figure 2 JSON plus the flattened-path metadata fields."""
        out = self.to_json()
        if self.week:
            out["week"] = self.week
        if self.group:
            out["group"] = self.group
        if self.party_id:
            out["party_id"] = self.party_id
        return out

    @classmethod
    def from_record(cls, record: dict) -> "Tweet":
        """Rebuild a :class:`Tweet` from a Figure-2-shaped document."""
        user = record.get("user", {})
        entities = record.get("entities", {})
        return cls(
            tweet_id=record["id"],
            created_at=record.get("created_at", ""),
            text=record.get("text", ""),
            user_id=user.get("id", 0),
            user_name=user.get("name", ""),
            screen_name=user.get("screen_name", ""),
            user_description=user.get("description", ""),
            followers_count=user.get("followers_count", 0),
            retweet_count=record.get("retweet_count", 0),
            favorite_count=record.get("favorite_count", 0),
            hashtags=tuple(entities.get("hashtags", ())),
            urls=tuple(entities.get("urls", ())),
            week=record.get("week", ""),
            group=record.get("group", ""),
            party_id=record.get("party_id", ""),
        )


@dataclass
class TweetGeneratorConfig:
    """Knobs of the synthetic tweet generator."""

    topic: Topic = field(default_factory=lambda: STATE_OF_EMERGENCY)
    weeks: int = 4
    tweets_per_politician_per_week: float = 3.0
    start: date = DEFAULT_START
    seed: int = 7


def generate_tweet_objects(politicians: Sequence[Politician],
                           config: TweetGeneratorConfig | None = None) -> list[Tweet]:
    """Generate :class:`Tweet` objects for ``politicians``."""
    config = config or TweetGeneratorConfig()
    rng = random.Random(config.seed)
    tweets: list[Tweet] = []
    tweet_id = 464_244_000_000_000_000
    for week_index in range(config.weeks):
        phase = config.topic.phases[min(week_index, len(config.topic.phases) - 1)]
        week_start = config.start + timedelta(weeks=week_index)
        for politician in politicians:
            expected = config.tweets_per_politician_per_week * politician.activity
            count = _poisson(rng, expected)
            for _ in range(count):
                tweet_id += rng.randrange(1, 5000)
                moment = datetime.combine(week_start, datetime.min.time()) + timedelta(
                    days=rng.randrange(7), hours=rng.randrange(7, 23), minutes=rng.randrange(60)
                )
                off_topic = rng.random() < OFF_TOPIC_PROBABILITY
                text, hashtags = _compose_text(rng, config, politician.group, phase.label,
                                               week_index, off_topic)
                tweets.append(Tweet(
                    tweet_id=tweet_id,
                    created_at=moment.strftime("%Y-%m-%dT%H:%M:%S"),
                    week=f"{week_start.isocalendar()[0]}-W{week_start.isocalendar()[1]:02d}",
                    text=text,
                    user_id=int(politician.politician_id[3:]),
                    user_name=politician.name,
                    screen_name=politician.twitter_account,
                    user_description=f"{politician.position} - {politician.group}",
                    followers_count=politician.followers,
                    retweet_count=_engagement(rng, politician.followers),
                    favorite_count=_engagement(rng, politician.followers, scale=0.6),
                    hashtags=tuple(hashtags),
                    group=politician.group,
                    party_id=politician.party_id,
                ))
    return tweets


def generate_tweets(politicians: Sequence[Politician],
                    config: TweetGeneratorConfig | None = None) -> list[dict]:
    """Generate Figure-2-shaped tweet documents for ``politicians``."""
    return [tweet.record() for tweet in generate_tweet_objects(politicians, config)]


def generate_facebook_posts(politicians: Sequence[Politician], topic: Topic | None = None,
                            posts_per_politician: int = 3, seed: int = 11,
                            start: date = DEFAULT_START) -> list[dict]:
    """Generate Facebook-post documents (longer texts, like/share/comment counts)."""
    topic = topic or STATE_OF_EMERGENCY
    rng = random.Random(seed)
    posts: list[dict] = []
    post_id = 900_000_000
    for politician in politicians:
        for index in range(posts_per_politician):
            post_id += rng.randrange(1, 900)
            phase = topic.phases[min(index, len(topic.phases) - 1)]
            sentences = []
            for _ in range(3):
                words = _pick_words(rng, topic, politician.group, phase.label, count=12)
                sentences.append(" ".join(words).capitalize() + ".")
            moment = datetime.combine(start, datetime.min.time()) + timedelta(
                weeks=index, days=rng.randrange(7), hours=rng.randrange(8, 22)
            )
            posts.append({
                "id": post_id,
                "author": politician.facebook_account,
                "page_id": f"page_{politician.politician_id.lower()}",
                "created_at": moment.strftime("%Y-%m-%dT%H:%M:%S"),
                "message": " ".join(sentences),
                "likes": _engagement(rng, politician.followers, scale=1.5),
                "shares": _engagement(rng, politician.followers, scale=0.4),
                "comments": _engagement(rng, politician.followers, scale=0.3),
                "group": politician.group,
            })
    return posts


def figure2_example_tweet() -> dict:
    """The tweet of the paper's Figure 2, as a document of our store schema."""
    return {
        "created_at": "2016-03-01T03:42:31",
        "id": 464244242167342513,
        "text": ("Je suis là aujourd'hui pour montrer qu'il y a une solidarité nationale. "
                 "En défendant l'agriculture ... #SIA2016"),
        "user": {
            "id": 483794260,
            "name": "François Hollande",
            "screen_name": "fhollande",
            "description": "Président de la République française",
            "followers_count": 1502835,
        },
        "retweet_count": 469,
        "favorite_count": 883,
        "entities": {"hashtags": ["SIA2016"], "urls": []},
    }


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------

def _compose_text(rng: random.Random, config: TweetGeneratorConfig, group: str,
                  phase_label: str, week_index: int, off_topic: bool) -> tuple[str, list[str]]:
    topic = config.topic
    if off_topic:
        words = [rng.choice(FILLER_TERMS) for _ in range(WORDS_PER_TWEET)]
        return " ".join(words), []
    words = _pick_words(rng, topic, group, phase_label, count=WORDS_PER_TWEET)
    hashtags = []
    if rng.random() < HASHTAG_PROBABILITY:
        hashtags.append(topic.hashtag)
        words.append(f"#{topic.hashtag}")
    return " ".join(words), hashtags


def _pick_words(rng: random.Random, topic: Topic, group: str, phase_label: str,
                count: int) -> list[str]:
    phase = next((p for p in topic.phases if p.label == phase_label), topic.phases[0])
    group_slant = topic.group_terms.get(group, ())
    words: list[str] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.35 and phase.core_terms:
            words.append(rng.choice(phase.core_terms))
        elif roll < 0.6 and group_slant:
            words.append(rng.choice(group_slant))
        elif roll < 0.85:
            words.append(rng.choice(topic.shared_terms))
        else:
            words.append(rng.choice(FILLER_TERMS))
    return words


def _engagement(rng: random.Random, followers: int, scale: float = 1.0) -> int:
    base = max(1.0, followers / 300.0)
    return int(rng.expovariate(1.0 / (base * scale + 1.0)))


def _poisson(rng: random.Random, expected: float) -> int:
    """Small-λ Poisson sampling (Knuth's algorithm)."""
    if expected <= 0:
        return 0
    limit = pow(2.718281828459045, -expected)
    count, product = 0, rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count
