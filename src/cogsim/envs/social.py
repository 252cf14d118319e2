"""Social-feed environment: profiles, a follower graph, a recency feed, and a
post/comment/like action subset with comments routed back to post authors as
environment-mediated messages.

Ids are dense: post_ids and comment_ids each count 1, 2, 3, ... in creation
order, so a run's tables can be reconstructed exactly by replaying its event
stream. Feeds are pure recency over the follow graph (followed users' posts
plus the viewer's own posts that drew replies), newest first, capped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import UnknownPost
from ..protocol import ActionEnvelope, Environment, EventRecord, Message, Observation, route_messages
from ..schema import ResponseSchema

ACTION_KINDS = ("create_post", "create_comment", "like_post", "do_nothing")

DEFAULT_SEED_POST = "report: amazon plans to open its first physical store in new york URL"


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
    includes anything from the future of ``now``.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")

    def visible_comments(post_id: int) -> list[Comment]:
        return [
            state.comments[cid]
            for cid in state.comments_by_post.get(post_id, ())
            if now is None or state.comments[cid].time <= now
        ]

    entries = []
    for author in sorted(profiles[user].follows):
        for pid in state.posts_by_author.get(author, ()):
            post = state.posts[pid]
            if now is not None and post.time > now:
                continue
            entries.append((post, visible_comments(pid)))
    for pid in state.posts_by_author.get(user, ()):
        post = state.posts[pid]
        if now is not None and post.time > now:
            continue
        comments = visible_comments(pid)
        if comments:
            entries.append((post, comments))
    entries.sort(key=lambda pc: (-pc[0].time, -pc[0].post_id))
    return entries[:cap]


def apply_social_action(action: SocialAction, state: SocialState, agent: int, time: int) -> EventRecord:
    """Mutate the post/comment/like tables and return the matching log record.

    Raises :class:`UnknownPost` (state untouched) when the target is absent.
    """
    if action.kind == "create_post":
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
        if self.seed_post:
            seed_influencer(self.state, self.seed_post, self.influencer, self.events)

    def done(self) -> bool:
        return False  # runs until the caller's max_steps

    def _render_feed(self, aid: int) -> str:
        entries = build_feed(aid, self.profiles, self.state, cap=self.feed_cap, now=self.t)
        if not entries:
            return "Your feed is empty."
        lines = ["Your feed (newest first):"]
        for post, comments in entries:
            likes = len(post.likes)
            lines.append(
                f"- post {post.post_id} by agent {post.author} at t={post.time} ({likes} likes): {post.content}"
            )
            for comment in comments:
                lines.append(
                    f"    comment {comment.comment_id} by agent {comment.author}: {comment.content}"
                )
        return "\n".join(lines)

    def _context_for(self, aid: int) -> str:
        profile = self.profiles[aid]
        return (
            f"t={self.t}. You are a social media user. Bio: {profile.bio}\n"
            f"{self._render_feed(aid)}\n"
            "Choose one action kind: create_post, create_comment, like_post, or do_nothing."
        )

    def _inbox(self, aid: int) -> list[Message]:
        return list(self._inboxes.get(aid, []))

    def step(self, actions: Mapping[int, ActionEnvelope]) -> dict[int, Observation]:
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

    def metrics(self) -> dict[str, float]:
        return {
            "posts": float(len(self.state.posts)),
            "comments": float(len(self.state.comments)),
            "likes": float(sum(len(p.likes) for p in self.state.posts.values())),
        }
