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
a replied post gets a feed built for it alone. Each built feed is rendered
once per step and keyed by its post ids, so viewers with equal feeds share
one string. Posts are created at non-decreasing times, so each author's
posts in id order are also in time order, and ``build_feed`` picks the
newest ``cap`` posts by a heap merge of those lists walked backwards.

An observation's context is three parts: a per-agent header (clock and
bio), the shared feed string and a constant footer. Agents' memories keep
the parts, so a step's feed is held once however many followers archive it;
the parts are joined wherever text is read, so prompts, archives and
events are byte-equal to those of one joined string per agent.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Mapping

from ..errors import ConfigError, UnknownPost
from ..protocol import ActionEnvelope, Environment, EventRecord, Message, Observation, route_messages
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


@dataclass
class Post:
    post_id: int
    author: int
    time: int
    content: str
    likes: set[int] = field(default_factory=set)


@dataclass
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
    next_post_id: int = 1
    next_comment_id: int = 1
    # id-ordered indexes, maintained by apply_social_action
    posts_by_author: dict[int, list[int]] = field(default_factory=dict)
    comments_by_post: dict[int, list[int]] = field(default_factory=dict)


def build_feed(
    user: int,
    profiles: Mapping[int, UserProfile],
    state: SocialState,
    cap: int = 10,
    now: int | None = None,
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
                if now is None or state.comments[cid].time <= now
            ]
        return found

    def newest_first(author: int, replied_only: bool) -> Iterator[Post]:
        for pid in reversed(state.posts_by_author.get(author, ())):
            post = state.posts[pid]
            if (now is None or post.time <= now) and (not replied_only or visible_comments(pid)):
                yield post

    lists = [newest_first(author, False) for author in profiles[user].follows]
    lists.append(newest_first(user, True))
    merged = heapq.merge(*lists, key=lambda post: (-post.time, -post.post_id))
    return [(post, visible_comments(post.post_id)) for post in islice(merged, cap)]


def apply_social_action(action: SocialAction, state: SocialState, agent: int, time: int) -> EventRecord:
    """Mutate the post/comment/like tables and return the matching log record.

    Raises :class:`UnknownPost` (state untouched) when the target is absent,
    and ``ValueError`` for a post older than the newest one, which would break
    the time order ``build_feed`` relies on.
    """
    if action.kind == "create_post":
        newest = state.posts.get(state.next_post_id - 1)
        if newest is not None and time < newest.time:
            raise ValueError(f"post at t={time} is older than post {newest.post_id} at t={newest.time}")
        post = Post(post_id=state.next_post_id, author=agent, time=time, content=action.content)
        state.posts[post.post_id] = post
        state.posts_by_author.setdefault(agent, []).append(post.post_id)
        state.next_post_id += 1
        return EventRecord(
            user_id=agent, current_time=time, action="create_post",
            info={"content": action.content, "post_id": post.post_id},
        )
    if action.kind == "create_comment":
        if action.target_post not in state.posts:
            raise UnknownPost(f"post {action.target_post} does not exist")
        comment = Comment(
            comment_id=state.next_comment_id,
            post_id=action.target_post,
            author=agent,
            time=time,
            content=action.content,
        )
        state.comments[comment.comment_id] = comment
        state.comments_by_post.setdefault(action.target_post, []).append(comment.comment_id)
        state.next_comment_id += 1
        # post_id is carried alongside the Text-box fields so the stream replays
        return EventRecord(
            user_id=agent, current_time=time, action="create_comment",
            info={"content": action.content, "comment_id": comment.comment_id, "post_id": action.target_post},
        )
    if action.kind == "like_post":
        if action.target_post not in state.posts:
            raise UnknownPost(f"post {action.target_post} does not exist")
        state.posts[action.target_post].likes.add(agent)
        return EventRecord(
            user_id=agent, current_time=time, action="like_post", info={"post_id": action.target_post}
        )
    return EventRecord(user_id=agent, current_time=time, action="do_nothing", info={})


def replay_events(records: Iterable[EventRecord], profiles: Mapping[int, UserProfile]) -> SocialState:
    """Rebuild the full social state from an event stream."""
    state = SocialState(profiles=dict(profiles))
    for record in records:
        if record.action == "create_post":
            action = SocialAction(kind="create_post", content=record.info["content"])
        elif record.action == "create_comment":
            action = SocialAction(
                kind="create_comment", content=record.info["content"], target_post=record.info["post_id"]
            )
        elif record.action == "like_post":
            action = SocialAction(kind="like_post", target_post=record.info["post_id"])
        else:
            continue
        rebuilt = apply_social_action(action, state, agent=record.user_id, time=record.current_time)
        if rebuilt.info != record.info:
            raise AssertionError(f"replay diverged at {record}")
    return state


def seed_influencer(state: SocialState, content: str, influencer: int, events=None) -> int:
    """Inject the opening post at t=0, before any agent acts."""
    record = apply_social_action(SocialAction(kind="create_post", content=content), state, influencer, time=0)
    if events is not None:
        events.append(record.user_id, record.current_time, record.action, record.info)
    return record.info["post_id"]


ACTION_SCHEMA = ResponseSchema.of(kind="string", content="string?", target_post="integer?")


def star_profiles(n_agents: int, influencer: int = 0, bios: Mapping[int, str] | None = None) -> dict[int, UserProfile]:
    """Everyone follows the influencer; the influencer follows nobody."""
    bios = bios or {}
    return {
        aid: UserProfile(
            agent=aid,
            bio=bios.get(aid, f"user {aid}"),
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
        self._clear_feed_cache()
        if self.seed_post:
            seed_influencer(self.state, self.seed_post, self.influencer, self.events)

    def _clear_feed_cache(self):
        # per step: each rendered feed by its post ids, so equal feeds are one
        # string, and by follow set the feed of a viewer with no replied own
        # post. Every observation of a step shares them, and each step's
        # actions change them
        self._feeds: dict[tuple[int, ...], str] = {}
        self._follow_feeds: dict[frozenset[int], str] = {}

    def done(self) -> bool:
        return False  # runs until the caller's max_steps

    def _render_feed(self, aid: int) -> str:
        # every post and comment is at most self.t old, so an own post with
        # comments is one with visible replies, which only aid's feed shows
        state = self.state
        replied = any(pid in state.comments_by_post for pid in state.posts_by_author.get(aid, ()))
        follows = frozenset(self.profiles[aid].follows)
        if not replied and follows in self._follow_feeds:
            return self._follow_feeds[follows]
        entries = build_feed(aid, self.profiles, state, cap=self.feed_cap, now=self.t)
        key = tuple(post.post_id for post, _ in entries)
        feed = self._feeds.get(key)
        if feed is None:
            lines = ["Your feed (newest first):" if entries else "Your feed is empty."]
            for post, comments in entries:
                likes = len(post.likes)
                lines.append(f"- post {post.post_id} by agent {post.author} at t={post.time} ({likes} likes): {post.content}")
                lines += [f"    comment {c.comment_id} by agent {c.author}: {c.content}" for c in comments]
            feed = self._feeds[key] = "\n".join(lines)
        if not replied:
            self._follow_feeds[follows] = feed
        return feed

    def _context_for(self, aid: int) -> tuple[str, str, str]:
        header = f"t={self.t}. You are a social media user. Bio: {self.profiles[aid].bio}\n"
        return header, self._render_feed(aid), FOOTER

    def _inbox(self, aid: int) -> list[Message]:
        return list(self._inboxes.get(aid, []))

    def step(self, actions: Mapping[int, ActionEnvelope]) -> dict[int, Observation]:
        self._clear_feed_cache()
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
                record = apply_social_action(action, self.state, agent=aid, time=self.t)
            except UnknownPost as exc:
                self.events.append(aid, self.t, "reject_action", {"reason": str(exc)})
                continue
            self.events.append(record.user_id, record.current_time, record.action, record.info)
            if record.action == "create_comment":
                author = self.state.posts[record.info["post_id"]].author
                if author != aid:
                    outbox.append(
                        Message(
                            time=self.t,
                            src_agent_id=aid,
                            dst_agent_id=author,
                            payload={
                                "kind": "comment",
                                "post_id": record.info["post_id"],
                                "comment_id": record.info["comment_id"],
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
