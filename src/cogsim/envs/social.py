"""Social-feed environment: profiles, a follower graph, a recency feed, and a
post/comment/like action subset with comments routed back to post authors as
environment-mediated messages.

Ids are dense: post_ids and comment_ids each count 1, 2, 3, ... in creation
order, so a run's tables can be reconstructed exactly by replaying its event
stream. Feeds are pure recency over the follow graph (followed users' posts
plus the viewer's own posts that drew replies), newest first, capped.

Each feed is built once per step. Every viewer with the same follow set
and no replied own post sees the same feed, so ``SocialEnv`` builds that
follow set's feed once per step and serves it to all of them; a viewer with
a replied post gets a feed built for it alone. Posts are created at
non-decreasing times, so each author's posts in id order are also in time
order, and ``build_feed`` picks the newest ``cap`` posts by a heap merge of
those lists walked backwards.

A feed is its header line, then one block per post: the post line and its
visible comment lines, each line starting with ``"\n"``. ``SocialEnv`` keeps
each post's block across steps, stamped with its like count and visible
comment count, and renders it again only when that stamp changes: likes
only grow, comments are append-only and time-ordered, and a post's other
fields never change. So equal feeds share every part, and ``reset`` drops
every block. A post nobody has liked holds the one empty ``frozenset``
until its first like.

An observation's context is the step's clock, the intro for the agent's
bio, the feed's header and blocks, and a constant footer. The clock and
intro are cached by the values they render, so a step's clock is one string
for every agent and an intro one string across steps. Agents' memories keep
the parts, so a post's block is held once for as long as it is unchanged,
however many followers archive it over however many steps, and no archive
holds a per-agent header; the parts are joined wherever text is read, so
prompts, archives and events are byte-equal to those of one joined string
per agent.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Mapping

from ..errors import ConfigError, UnknownPost
from ..protocol import ActionEnvelope, Environment, EventLog, EventRecord, Message, Observation, route_messages
from ..schema import ResponseSchema

ACTION_KINDS = ("create_post", "create_comment", "like_post", "do_nothing")

FOOTER = "\nChoose one action kind: create_post, create_comment, like_post, or do_nothing."


@dataclass
class UserProfile:
    agent: int
    bio: str = ""
    follows: set[int] = field(default_factory=set)

    def __post_init__(self):
        if self.agent in self.follows:
            raise ValueError("no self-follow")


@dataclass(slots=True)
class Post:
    post_id: int
    author: int
    time: int
    content: str
    likes: set[int] | frozenset[int] = frozenset()  # a set of its own from the first like


@dataclass(slots=True)
class Comment:
    comment_id: int
    post_id: int
    author: int
    time: int
    content: str


@dataclass(frozen=True)
class SocialAction:
    kind: str
    content: str | None = None
    target_post: int | None = None

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind in ("create_post", "create_comment") and not self.content:
            raise ValueError(f"{self.kind} requires content")
        if self.kind in ("create_comment", "like_post") and self.target_post is None:
            raise ValueError(f"{self.kind} requires target_post")


@dataclass
class SocialState:
    profiles: dict[int, UserProfile]
    posts: dict[int, Post] = field(default_factory=dict)
    comments: dict[int, Comment] = field(default_factory=dict)
    # id-ordered indexes, maintained by apply_social_action
    posts_by_author: dict[int, list[int]] = field(default_factory=dict)
    comments_by_post: dict[int, list[int]] = field(default_factory=dict)


def build_feed(
    user: int,
    profiles: Mapping[int, UserProfile],
    state: SocialState,
    now: int,
    cap: int = 10,
) -> list[tuple[Post, list[Comment]]]:
    """Recency feed: followed users' posts, plus own posts that have replies.

    Newest first (ties to the higher post id), truncated to ``cap``; never
    includes anything from the future of ``now``. Posts are created at
    non-decreasing times, so each author's id-ordered ``posts_by_author``
    list, walked backwards, is already in feed order; the newest ``cap``
    posts are a lazy heap merge of those lists. Each post's visible comments
    are gathered at most once per call.
    """
    memo: dict[int, list[Comment]] = {}

    def visible_comments(post_id: int) -> list[Comment]:
        found = memo.get(post_id)
        if found is None:
            found = memo[post_id] = [
                state.comments[cid]
                for cid in state.comments_by_post.get(post_id, ())
                if state.comments[cid].time <= now
            ]
        return found

    def newest_first(author: int, replied_only: bool) -> Iterator[Post]:
        for pid in reversed(state.posts_by_author.get(author, ())):
            post = state.posts[pid]
            if post.time <= now and (not replied_only or visible_comments(pid)):
                yield post

    lists = [newest_first(author, False) for author in profiles[user].follows]
    lists.append(newest_first(user, True))
    merged = heapq.merge(*lists, key=lambda post: (-post.time, -post.post_id))
    return [(post, visible_comments(post.post_id)) for post in islice(merged, cap)]


def apply_social_action(action: SocialAction, state: SocialState, agent: int, time: int, events: EventLog) -> EventRecord:
    """Mutate the post/comment/like tables, and append the matching record to ``events`` and return it.

    Raises :class:`UnknownPost` (state untouched) when the target is absent,
    and ``ValueError`` for a post older than the newest one, which would break
    the time order ``build_feed`` relies on.
    """
    if action.kind == "create_post":
        newest = state.posts.get(len(state.posts))
        if newest is not None and time < newest.time:
            raise ValueError(f"post at t={time} is older than post {newest.post_id} at t={newest.time}")
        post = Post(post_id=len(state.posts) + 1, author=agent, time=time, content=action.content)
        state.posts[post.post_id] = post
        state.posts_by_author.setdefault(agent, []).append(post.post_id)
        return events.append(agent, time, "create_post", {"content": action.content, "post_id": post.post_id})
    if action.kind == "create_comment":
        if action.target_post not in state.posts:
            raise UnknownPost(f"post {action.target_post} does not exist")
        comment = Comment(
            comment_id=len(state.comments) + 1,
            post_id=action.target_post,
            author=agent,
            time=time,
            content=action.content,
        )
        state.comments[comment.comment_id] = comment
        state.comments_by_post.setdefault(action.target_post, []).append(comment.comment_id)
        # post_id is carried alongside the Text-box fields so the stream replays
        info = {"content": action.content, "comment_id": comment.comment_id, "post_id": action.target_post}
        return events.append(agent, time, "create_comment", info)
    if action.kind == "like_post":
        if action.target_post not in state.posts:
            raise UnknownPost(f"post {action.target_post} does not exist")
        post = state.posts[action.target_post]
        if post.likes:
            post.likes.add(agent)
        else:
            post.likes = {agent}
        return events.append(agent, time, "like_post", {"post_id": action.target_post})
    return events.append(agent, time, "do_nothing")


def replay_events(records: Iterable[EventRecord], profiles: Mapping[int, UserProfile]) -> SocialState:
    """Rebuild the full social state from an event stream."""
    state, events = SocialState(profiles=dict(profiles)), EventLog()
    for record in records:
        if record.action not in ("create_post", "create_comment", "like_post"):
            continue
        info = record.info  # each read decodes the record's whole line
        target = None if record.action == "create_post" else info["post_id"]
        action = SocialAction(kind=record.action, content=info.get("content"), target_post=target)
        rebuilt = apply_social_action(action, state, record.user_id, record.current_time, events)
        if rebuilt.line != record.line:
            raise AssertionError(f"replay diverged at {record}")
    return state


def seed_influencer(state: SocialState, content: str, influencer: int, events: EventLog) -> int:
    """Inject the opening post at t=0, before any agent acts, and log it to ``events``."""
    return apply_social_action(SocialAction(kind="create_post", content=content), state, influencer, 0, events).info["post_id"]


ACTION_SCHEMA = ResponseSchema.of(kind="string", content="string?", target_post="integer?")


def _clock(t: int) -> str:
    return f"t={t}. "


def _intro(bio: str) -> str:
    return f"You are a social media user. Bio: {bio}\n"


def star_profiles(n_agents: int, influencer: int = 0) -> dict[int, UserProfile]:
    """Everyone follows the influencer; the influencer follows nobody."""
    return {
        aid: UserProfile(
            agent=aid,
            bio=f"user {aid}",
            follows=set() if aid == influencer else {influencer},
        )
        for aid in range(n_agents)
    }


class SocialEnv(Environment):
    """One step per feed refresh; actions applied in ascending agent id."""

    name = "social"
    schema = ACTION_SCHEMA

    def __init__(
        self,
        profiles: dict[int, UserProfile],
        feed_cap: int = 10,
        seed_post: str | None = None,
        influencer: int = 0,
    ):
        super().__init__()
        if feed_cap < 0:
            raise ConfigError("must be >= 0", field="feed_cap")
        if influencer not in profiles:
            raise ConfigError("must be one of the agent ids", field="influencer")
        self.profiles = profiles
        self.feed_cap = feed_cap
        self.seed_post = seed_post
        self.influencer = influencer
        self.agent_ids = sorted(profiles)
        self._setup()

    def _setup(self):
        self.state = SocialState(profiles=self.profiles)
        self.t = 0
        self._inboxes: dict[int, list[Message]] = {aid: [] for aid in self.profiles}
        self._clock, self._intro = (lru_cache(maxsize=None)(part) for part in (_clock, _intro))
        # across steps: each post's block by post id, with the stamp it was
        # rendered at; a new run's posts reuse the ids, so _setup drops them
        self._blocks: dict[int, tuple[tuple[int, int], str]] = {}
        # per step: by follow set, the feed of a viewer with no replied own
        # post, shared by every such observation of the step
        self._follow_feeds: dict[frozenset[int], tuple[str, ...]] = {}
        if self.seed_post:
            seed_influencer(self.state, self.seed_post, self.influencer, self.events)

    def done(self) -> bool:
        return False  # runs until the caller's max_steps

    def _block(self, post: Post, comments: list[Comment]) -> str:
        stamp = (len(post.likes), len(comments))
        kept = self._blocks.get(post.post_id)
        if kept is not None and kept[0] == stamp:
            return kept[1]
        lines = [f"\n- post {post.post_id} by agent {post.author} at t={post.time} ({stamp[0]} likes): {post.content}"]
        lines += [f"\n    comment {c.comment_id} by agent {c.author}: {c.content}" for c in comments]
        block = "".join(lines)
        self._blocks[post.post_id] = stamp, block
        return block

    def _render_feed(self, aid: int) -> tuple[str, ...]:
        # every post and comment is at most self.t old, so an own post with
        # comments is one with visible replies, which only aid's feed shows
        state = self.state
        replied = any(pid in state.comments_by_post for pid in state.posts_by_author.get(aid, ()))
        follows = frozenset(self.profiles[aid].follows)
        if not replied and follows in self._follow_feeds:
            return self._follow_feeds[follows]
        entries = build_feed(aid, self.profiles, state, cap=self.feed_cap, now=self.t)
        header = "Your feed (newest first):" if entries else "Your feed is empty."
        feed = (header, *(self._block(post, comments) for post, comments in entries))
        if not replied:
            self._follow_feeds[follows] = feed
        return feed

    def _context_for(self, aid: int) -> tuple[str, ...]:
        """The clock, the bio's intro, the feed's header and post blocks, and the footer."""
        return (self._clock(self.t), self._intro(self.profiles[aid].bio), *self._render_feed(aid), FOOTER)

    def _inbox(self, aid: int) -> list[Message]:
        return list(self._inboxes.get(aid, []))

    def step(self, actions: Mapping[int, ActionEnvelope]) -> dict[int, Observation]:
        self._follow_feeds = {}
        outbox: list[Message] = []
        for aid in sorted(actions):
            body = actions[aid].body
            try:
                action = SocialAction(
                    kind=body.get("kind", "do_nothing"),
                    content=body.get("content"),
                    target_post=body.get("target_post"),
                )
            except ValueError as exc:
                self.events.append(aid, self.t, "reject_action", {"reason": str(exc)})
                continue
            try:
                record = apply_social_action(action, self.state, aid, self.t, self.events)
            except UnknownPost as exc:
                self.events.append(aid, self.t, "reject_action", {"reason": str(exc)})
                continue
            if record.action == "create_comment":
                author = self.state.posts[action.target_post].author
                if author != aid:
                    outbox.append(
                        Message(
                            time=self.t,
                            src_agent_id=aid,
                            dst_agent_id=author,
                            payload={
                                "kind": "comment",
                                "post_id": action.target_post,
                                "comment_id": self.state.comments_by_post[action.target_post][-1],
                                "text": action.content,
                            },
                        )
                    )
        self._inboxes = route_messages(outbox, set(self.profiles))
        self.t += 1
        return self._observations()


def social_metrics(records: list[EventRecord]) -> dict[str, float]:
    """Posts and comments created, and likes: a user's repeated like of one post counts once."""
    counts = Counter(record.action for record in records)
    likes = {(record.user_id, record.info["post_id"]) for record in records if record.action == "like_post"}
    return {"posts": float(counts["create_post"]), "comments": float(counts["create_comment"]), "likes": float(len(likes))}
