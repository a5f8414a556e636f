"""Deterministic LDBC-SNB-style social network generation.

Produces the *abstract* social network — persons, a knows-graph, forums
(walls and albums, titled exactly like the paper's Fig. 2/3 results:
"Wall of Eli Peretz", "Album 11 of Eli Peretz"), posts, comments, likes,
and tag/city annotations.  :mod:`repro.solidbench.fragmenter` then
distributes it into Solid pods.

All identifiers and choices derive from one seeded RNG; the same config
always yields the same network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from typing import Optional

from .config import SolidBenchConfig

__all__ = [
    "PersonData",
    "ForumData",
    "MessageData",
    "LikeData",
    "SocialNetwork",
    "generate_social_network",
    "FIRST_NAMES",
    "LAST_NAMES",
    "TAG_NAMES",
    "PLACE_NAMES",
]

FIRST_NAMES = [
    "Eli", "Zulma", "Ana", "Jun", "Mehmet", "Ivan", "Chen", "Abebe", "Bryn",
    "Carmen", "Daniela", "Emre", "Farah", "Gustavo", "Hana", "Igor", "Jana",
    "Kofi", "Lena", "Mikhail", "Noor", "Otavio", "Priya", "Quentin", "Rosa",
    "Santiago", "Tariq", "Uma", "Viktor", "Wafa", "Ximena", "Yusuf", "Zara",
    "Anders", "Beatriz", "Cheng", "Dmitri", "Elena", "Fatima", "Giorgio",
]

LAST_NAMES = [
    "Peretz", "Silva", "Kim", "Yilmaz", "Petrov", "Wang", "Bekele", "Jones",
    "Garcia", "Rossi", "Demir", "Haddad", "Santos", "Sato", "Volkov",
    "Novak", "Mensah", "Fischer", "Sokolov", "Rahman", "Costa", "Dubois",
    "Castillo", "Aziz", "Devi", "Moreau", "Alvarez", "Hassan", "Iyer",
    "Smirnov", "Nasser", "Lopez", "Ahmed", "Okafor", "Kovacs", "Andersen",
    "Li", "Ivanova", "Khan", "Ricci",
]

TAG_NAMES = [
    "Albert_Einstein", "Ludwig_van_Beethoven", "Napoleon", "Genghis_Khan",
    "Charles_Darwin", "Marie_Curie", "William_Shakespeare", "Wolfgang_Amadeus_Mozart",
    "Isaac_Newton", "Leonardo_da_Vinci", "Augustine_of_Hippo", "Frida_Kahlo",
    "Alan_Turing", "Ada_Lovelace", "Confucius", "Aristotle", "Hypatia",
    "Ibn_Sina", "Rumi", "Sun_Tzu", "Cleopatra", "Joan_of_Arc", "Nikola_Tesla",
    "Galileo_Galilei", "Johannes_Gutenberg",
]

PLACE_NAMES = [
    "Germany", "China", "India", "Brazil", "Nigeria", "Mexico", "Japan",
    "Turkey", "France", "Italy", "Spain", "Poland", "Kenya", "Vietnam",
    "Argentina", "Canada", "Egypt", "Indonesia", "Morocco", "Peru",
]

_BROWSERS = ["Firefox", "Chrome", "Safari", "Internet Explorer", "Opera"]


@dataclass(slots=True)
class PersonData:
    """One person = one pod owner."""

    index: int
    ldbc_id: int
    first_name: str
    last_name: str
    knows: list[int] = field(default_factory=list)  # person indexes
    city: str = ""
    browser: str = ""

    @property
    def name(self) -> str:
        return f"{self.first_name} {self.last_name}"

    @property
    def pod_name(self) -> str:
        return f"{self.ldbc_id:020d}"


@dataclass(slots=True)
class ForumData:
    """A wall or album forum, moderated by its owner."""

    forum_id: int
    owner_index: int
    title: str
    kind: str  # "wall" | "album"
    message_ids: list[int] = field(default_factory=list)


@dataclass(slots=True)
class MessageData:
    """A post or a comment."""

    message_id: int
    kind: str  # "post" | "comment"
    creator_index: int
    creation_date: datetime
    content: str
    tags: list[str] = field(default_factory=list)
    place: str = ""
    browser: str = ""
    forum_id: Optional[int] = None  # posts only
    reply_of_id: Optional[int] = None  # comments only

    @property
    def creation_day(self) -> date:
        return self.creation_date.date()


@dataclass(slots=True)
class LikeData:
    person_index: int
    message_id: int
    message_kind: str
    creation_date: datetime


@dataclass(slots=True)
class SocialNetwork:
    """The full abstract network prior to pod fragmentation."""

    config: SolidBenchConfig
    persons: list[PersonData] = field(default_factory=list)
    forums: dict[int, ForumData] = field(default_factory=dict)
    messages: dict[int, MessageData] = field(default_factory=dict)
    likes: list[LikeData] = field(default_factory=list)

    def posts_of(self, person_index: int) -> list[MessageData]:
        return [
            m
            for m in self.messages.values()
            if m.creator_index == person_index and m.kind == "post"
        ]

    def forums_of(self, person_index: int) -> list[ForumData]:
        return [f for f in self.forums.values() if f.owner_index == person_index]

    def likes_of(self, person_index: int) -> list[LikeData]:
        return [l for l in self.likes if l.person_index == person_index]


# LDBC-flavoured id spacing: message/forum ids look like the long ids in the
# paper's Fig. 2 output (e.g. 755914244147) without colliding across kinds.
_PERSON_ID_BASE = 6_597_069_766_000
_FORUM_ID_STRIDE = 137_438_953_472 // 256
_MESSAGE_ID_STRIDE = 970_662_608_896 // 1024


def _random_datetime(rng: random.Random, config: SolidBenchConfig) -> datetime:
    start = datetime(config.start_year, 1, 1, tzinfo=timezone.utc)
    end = datetime(config.end_year, 12, 31, tzinfo=timezone.utc)
    seconds = rng.randrange(int((end - start).total_seconds()))
    return start + timedelta(seconds=seconds)


def _content_sentence(rng: random.Random, author: str, message_id: int) -> str:
    openers = [
        "About", "Thoughts on", "Photos from", "Reading about", "Notes on",
        "A story about", "Remembering", "Learning about",
    ]
    return f"{rng.choice(openers)} {rng.choice(TAG_NAMES).replace('_', ' ')} — {author} ({message_id})"


def generate_social_network(config: SolidBenchConfig) -> SocialNetwork:
    """Generate the deterministic social network for ``config``."""
    rng = random.Random(config.seed)
    network = SocialNetwork(config=config)
    count = config.person_count

    # -- persons -----------------------------------------------------------
    for index in range(count):
        person = PersonData(
            index=index,
            ldbc_id=_PERSON_ID_BASE + index * 7 + rng.randrange(3),
            first_name=FIRST_NAMES[index % len(FIRST_NAMES)],
            last_name=LAST_NAMES[(index // len(FIRST_NAMES) + index) % len(LAST_NAMES)],
            city=rng.choice(PLACE_NAMES),
            browser=rng.choice(_BROWSERS),
        )
        network.persons.append(person)

    # -- knows graph (undirected, stored both ways) -------------------------
    for person in network.persons:
        degree = max(1, round(rng.gauss(config.knows_per_person, config.knows_per_person / 4)))
        degree = min(degree, count - 1)
        candidates = rng.sample(range(count), min(count, degree + 1))
        for other in candidates:
            if other == person.index or other in person.knows:
                continue
            person.knows.append(other)
            other_person = network.persons[other]
            if person.index not in other_person.knows:
                other_person.knows.append(person.index)
            if len(person.knows) >= degree:
                break

    # -- forums: one wall + N albums per person -----------------------------
    next_forum = 0
    for person in network.persons:
        wall = ForumData(
            forum_id=200_000_000_000 + next_forum * _FORUM_ID_STRIDE,
            owner_index=person.index,
            title=f"Wall of {person.name}",
            kind="wall",
        )
        next_forum += 1
        network.forums[wall.forum_id] = wall
        album_count = max(1, round(rng.gauss(config.albums_per_person, 2)))
        for album_number in range(1, album_count + 1):
            album = ForumData(
                forum_id=200_000_000_000 + next_forum * _FORUM_ID_STRIDE,
                owner_index=person.index,
                title=f"Album {album_number} of {person.name}",
                kind="album",
            )
            next_forum += 1
            network.forums[album.forum_id] = album

    # -- posts ---------------------------------------------------------------
    next_message = 0
    for person in network.persons:
        person_forums = network.forums_of(person.index)
        post_count = max(1, round(rng.gauss(config.posts_per_person, config.posts_per_person / 4)))
        for _ in range(post_count):
            message_id = 300_000_000_000 + next_message * _MESSAGE_ID_STRIDE
            next_message += 1
            forum = rng.choice(person_forums)
            message = MessageData(
                message_id=message_id,
                kind="post",
                creator_index=person.index,
                creation_date=_random_datetime(rng, config),
                content=_content_sentence(rng, person.name, message_id),
                tags=rng.sample(TAG_NAMES, k=min(len(TAG_NAMES), max(1, config.tags_per_message))),
                place=rng.choice(PLACE_NAMES),
                browser=person.browser,
                forum_id=forum.forum_id,
            )
            forum.message_ids.append(message_id)
            network.messages[message_id] = message

    # -- comments (reply to friends' posts; fall back to any post) ------------
    all_post_ids = [m.message_id for m in network.messages.values()]
    for person in network.persons:
        friend_posts = [
            m.message_id
            for friend in person.knows
            for m in network.posts_of(friend)
        ]
        pool = friend_posts if friend_posts else all_post_ids
        comment_count = max(
            1, round(rng.gauss(config.comments_per_person, config.comments_per_person / 4))
        )
        for _ in range(comment_count):
            message_id = 300_000_000_000 + next_message * _MESSAGE_ID_STRIDE
            next_message += 1
            target = rng.choice(pool)
            message = MessageData(
                message_id=message_id,
                kind="comment",
                creator_index=person.index,
                creation_date=_random_datetime(rng, config),
                content=_content_sentence(rng, person.name, message_id),
                tags=rng.sample(TAG_NAMES, k=1),
                browser=person.browser,
                reply_of_id=target,
            )
            network.messages[message_id] = message

    # -- likes (of friends' messages) -----------------------------------------
    message_by_creator: dict[int, list[MessageData]] = {}
    for message in network.messages.values():
        message_by_creator.setdefault(message.creator_index, []).append(message)
    for person in network.persons:
        candidates = [
            m for friend in person.knows for m in message_by_creator.get(friend, [])
        ]
        if not candidates:
            continue
        like_count = max(1, round(rng.gauss(config.likes_per_person, config.likes_per_person / 4)))
        liked = rng.sample(candidates, k=min(len(candidates), like_count))
        for message in liked:
            network.likes.append(
                LikeData(
                    person_index=person.index,
                    message_id=message.message_id,
                    message_kind=message.kind,
                    creation_date=_random_datetime(rng, config),
                )
            )

    return network
