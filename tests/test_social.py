import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogsim.backends import CompletionResult, ScriptedBackend
from cogsim.cognition import Agent
from cogsim.envs import social
from cogsim.envs.social import (
    ACTION_KINDS,
    Comment,
    Post,
    SocialAction,
    SocialEnv,
    SocialState,
    UserProfile,
    apply_social_action,
    build_feed,
    replay_events,
    seed_influencer,
    social_metrics,
    star_profiles,
)
from cogsim.errors import UnknownPost
from cogsim.memory import ChatHistoryMemory
from cogsim.protocol import ActionEnvelope, run_episode
from cogsim.seeds import child_rng


def simple_state(n=3, follows=None):
    profiles = {
        aid: UserProfile(agent=aid, bio=f"user {aid}", follows=set(follows.get(aid, [])) if follows else set())
        for aid in range(n)
    }
    return SocialState(profiles=profiles)


# --- actions ---------------------------------------------------------------------


def test_first_post_gets_id_one():
    state = simple_state()
    record = apply_social_action(SocialAction(kind="create_post", content="hi"), state, agent=0, time=0)
    assert record.info == {"content": "hi", "post_id": 1}
    assert state.posts[1].author == 0


def test_comment_recorded_under_post():
    state = simple_state()
    apply_social_action(SocialAction(kind="create_post", content="p"), state, agent=0, time=0)
    record = apply_social_action(
        SocialAction(kind="create_comment", content="c", target_post=1), state, agent=1, time=1
    )
    assert record.info["comment_id"] == 1
    assert record.info["post_id"] == 1
    assert state.comments[1].post_id == 1


def test_like_missing_post_raises_and_leaves_state():
    state = simple_state()
    with pytest.raises(UnknownPost):
        apply_social_action(SocialAction(kind="like_post", target_post=99), state, agent=0, time=0)
    assert not state.posts and not state.comments


def test_like_idempotent():
    state = simple_state()
    apply_social_action(SocialAction(kind="create_post", content="p"), state, agent=0, time=0)
    for _ in range(2):
        apply_social_action(SocialAction(kind="like_post", target_post=1), state, agent=1, time=1)
    assert state.posts[1].likes == {1}


def test_post_older_than_newest_post_rejected():
    state = simple_state()
    apply_social_action(SocialAction(kind="create_post", content="now"), state, agent=1, time=5)
    with pytest.raises(ValueError):
        apply_social_action(SocialAction(kind="create_post", content="past"), state, agent=2, time=3)
    assert list(state.posts) == [1]
    apply_social_action(SocialAction(kind="create_post", content="same time"), state, agent=2, time=5)


def test_action_shape_validation():
    with pytest.raises(ValueError):
        SocialAction(kind="create_post")  # no content
    with pytest.raises(ValueError):
        SocialAction(kind="create_comment", content="x")  # no target
    with pytest.raises(ValueError):
        SocialAction(kind="retweet", content="x")


def test_no_self_follow():
    with pytest.raises(ValueError):
        UserProfile(agent=1, follows={1})


# --- feed ---------------------------------------------------------------------------


def feed_oracle(user, profiles, state, cap, now):
    """Brute-force filter-sort over the full post table."""
    rows = []
    for pid in sorted(state.posts):
        post = state.posts[pid]
        if now is not None and post.time > now:
            continue
        comments = [
            state.comments[cid]
            for cid in sorted(state.comments)
            if state.comments[cid].post_id == pid and (now is None or state.comments[cid].time <= now)
        ]
        visible = post.author in profiles[user].follows or (post.author == user and comments)
        if visible:
            rows.append((post, comments))
    rows.sort(key=lambda pc: (-pc[0].time, -pc[0].post_id))
    return rows[:cap]


def test_empty_feed_for_loner():
    state = simple_state()
    assert build_feed(0, state.profiles, state, cap=10) == []


def test_feed_recency_order_and_cap():
    state = simple_state(follows={0: [1]})
    for t in (1, 2, 3):
        apply_social_action(SocialAction(kind="create_post", content=f"t{t}"), state, agent=1, time=t)
    feed = build_feed(0, state.profiles, state, cap=2)
    assert [p.time for p, _ in feed] == [3, 2]


def test_own_post_with_reply_appears():
    state = simple_state(follows={1: [0]})
    apply_social_action(SocialAction(kind="create_post", content="mine"), state, agent=0, time=0)
    assert build_feed(0, state.profiles, state, cap=10) == []
    apply_social_action(SocialAction(kind="create_comment", content="re", target_post=1), state, agent=1, time=1)
    feed = build_feed(0, state.profiles, state, cap=10)
    assert len(feed) == 1
    assert feed[0][0].post_id == 1
    assert [c.comment_id for c in feed[0][1]] == [1]


def test_feed_matches_brute_force_oracle():
    rng = random.Random(13)
    for trial in range(30):
        n = 6
        follows = {aid: rng.sample([a for a in range(n) if a != aid], k=rng.randrange(0, n - 1)) for aid in range(n)}
        state = simple_state(n, follows=follows)
        for t in range(8):
            for aid in range(n):
                roll = rng.random()
                if roll < 0.4:
                    apply_social_action(SocialAction(kind="create_post", content=f"{aid}@{t}"), state, aid, t)
                elif roll < 0.6 and state.posts:
                    target = rng.choice(sorted(state.posts))
                    apply_social_action(
                        SocialAction(kind="create_comment", content="c", target_post=target), state, aid, t
                    )
        for user in range(n):
            cap = rng.randrange(0, 12)
            now = rng.randrange(0, 9)
            got = build_feed(user, state.profiles, state, cap=cap, now=now)
            want = feed_oracle(user, state.profiles, state, cap, now)
            assert [(p.post_id, [c.comment_id for c in cs]) for p, cs in got] == [
                (p.post_id, [c.comment_id for c in cs]) for p, cs in want
            ]


# One event per tuple: (time step, agent, kind, target index into the posts so far).
FEED_EVENTS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 5), st.sampled_from(ACTION_KINDS[:3]), st.integers(0, 30)),
    max_size=40,
)


@settings(derandomize=True, database=None, deadline=None)
@given(
    st.integers(2, 6),
    st.lists(st.sets(st.integers(0, 5)), min_size=6, max_size=6),
    FEED_EVENTS,
    st.integers(0, 12),
    st.one_of(st.none(), st.integers(-1, 30)),
)
def test_feed_equals_oracle_on_random_streams(n, follow_sets, events, cap, now):
    follows = {aid: sorted(follow_sets[aid] - {aid} & set(range(n))) for aid in range(n)}
    state = simple_state(n, follows=follows)
    time = 0
    for gap, agent, kind, target in events:
        time += gap  # posts, comments and likes arrive at non-decreasing times
        if kind == "create_post":
            action = SocialAction(kind=kind, content=f"{agent}@{time}")
        elif state.posts:
            action = SocialAction(kind=kind, content="c", target_post=target % len(state.posts) + 1)
        else:
            continue
        apply_social_action(action, state, agent % n, time)
    for user in range(n):
        got = build_feed(user, state.profiles, state, cap=cap, now=now)
        want = feed_oracle(user, state.profiles, state, cap, now)
        assert [(p.post_id, [c.comment_id for c in cs]) for p, cs in got] == [
            (p.post_id, [c.comment_id for c in cs]) for p, cs in want
        ]


def test_feed_never_leaks_future():
    state = simple_state(follows={0: [1]})
    apply_social_action(SocialAction(kind="create_post", content="later"), state, agent=1, time=5)
    assert build_feed(0, state.profiles, state, cap=10, now=4) == []
    assert len(build_feed(0, state.profiles, state, cap=10, now=5)) == 1


# --- seeding -------------------------------------------------------------------------


def test_seed_influencer_post():
    state = simple_state()
    pid = seed_influencer(state, "report: amazon plans to open its first physical store in new york URL", influencer=0)
    assert pid == 1
    assert state.posts[1].author == 0
    assert state.posts[1].time == 0


def test_two_seeds_get_dense_ids():
    state = simple_state()
    assert seed_influencer(state, "one", influencer=0) == 1
    assert seed_influencer(state, "two", influencer=0) == 2


def test_star_profiles_follower_count():
    profiles = star_profiles(111, influencer=0)
    followers = sum(1 for p in profiles.values() if 0 in p.follows)
    assert followers == 110
    assert profiles[0].follows == set()


# --- environment -----------------------------------------------------------------------


def scripted_social_policy(seed):
    def policy(obs):
        rng = child_rng(seed, "social-policy", obs.agent_id, obs.time)
        roll = rng.random()
        if roll < 0.25:
            body = {"kind": "create_post", "content": f"post by {obs.agent_id} at {obs.time}"}
        elif roll < 0.5 and "post " in obs.context_text:
            target = int(obs.context_text.split("post ")[1].split(" ")[0])
            body = {"kind": "create_comment", "content": "nice", "target_post": target}
        elif roll < 0.7 and "post " in obs.context_text:
            target = int(obs.context_text.split("post ")[1].split(" ")[0])
            body = {"kind": "like_post", "target_post": target}
        else:
            body = {"kind": "do_nothing"}
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body=body)

    return policy


def run_social(seed, n_agents=12, steps=6):
    env = SocialEnv(star_profiles(n_agents), seed_post="seed post about a store opening URL")
    agents = {aid: scripted_social_policy(seed) for aid in range(n_agents)}
    log = run_episode(env, agents, max_steps=steps, seed=seed)
    return env, log


def test_dense_ids_no_gaps():
    env, _ = run_social(3)
    assert sorted(env.state.posts) == list(range(1, len(env.state.posts) + 1))
    assert sorted(env.state.comments) == list(range(1, len(env.state.comments) + 1))


def test_replay_reconstructs_tables():
    env, log = run_social(5)
    rebuilt = replay_events(log.records, env.profiles)
    assert {p: (v.author, v.time, v.content) for p, v in rebuilt.posts.items()} == {
        p: (v.author, v.time, v.content) for p, v in env.state.posts.items()
    }
    assert {c: (v.post_id, v.author, v.content) for c, v in rebuilt.comments.items()} == {
        c: (v.post_id, v.author, v.content) for c, v in env.state.comments.items()
    }
    assert {p: v.likes for p, v in rebuilt.posts.items()} == {p: v.likes for p, v in env.state.posts.items()}


# Bodies that include every kind of rejection: an unknown kind, missing
# content or target, and targets of posts that do not exist (yet).
SOCIAL_BODY = st.fixed_dictionaries(
    {"kind": st.sampled_from([*ACTION_KINDS, "share_post"])},
    optional={"content": st.sampled_from(["", "hello", "again"]), "target_post": st.integers(0, 6)},
)


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.lists(SOCIAL_BODY, min_size=3, max_size=3), max_size=8), st.booleans())
def test_replay_rebuilds_tables_from_random_actions(steps, seeded):
    env = SocialEnv(star_profiles(3), seed_post="opening post" if seeded else None)
    env.reset()
    for bodies in steps:
        env.step({aid: ActionEnvelope(aid, env.t, body) for aid, body in enumerate(bodies)})
    assert replay_events(env.events.snapshot(), env.profiles) == env.state
    assert social_metrics(env.events.snapshot()) == {
        "posts": float(len(env.state.posts)),
        "comments": float(len(env.state.comments)),
        "likes": float(sum(len(post.likes) for post in env.state.posts.values())),
    }


def reference_render_feed(self, aid):
    """The feed renderer from before the per-step cache, kept verbatim as the reference."""
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


def reference_context(env, aid):
    return (
        f"t={env.t}. You are a social media user. Bio: {env.profiles[aid].bio}\n"
        f"{reference_render_feed(env, aid)}\n"
        "Choose one action kind: create_post, create_comment, like_post, or do_nothing."
    )


def test_cached_feed_equals_reference_render_after_every_step():
    n = 10
    rng = random.Random(21)
    profiles = {
        aid: UserProfile(agent=aid, bio=f"user {aid}", follows=set(rng.sample([a for a in range(n) if a != aid], k=3)))
        for aid in range(n)
    }
    env = SocialEnv(profiles, feed_cap=4, seed_post="opening post")

    def act(obs):
        shown = [int(pid) for pid in re.findall(r"post (\d+) by", obs.context_text)]
        roll = rng.random()
        if roll < 0.3 or not shown:
            return {"kind": "create_post", "content": f"post by {obs.agent_id} at {obs.time}"}
        if roll < 0.6:
            return {"kind": "create_comment", "content": f"re {obs.time}", "target_post": rng.choice(shown)}
        if roll < 0.9:
            return {"kind": "like_post", "target_post": rng.choice(shown)}
        return {"kind": "do_nothing"}

    def check(observations):
        assert {aid: obs.context_text for aid, obs in observations.items()} == {
            aid: reference_context(env, aid) for aid in env.agent_ids
        }
        return observations

    # the first episode ends while the opening post still shows its replies,
    # so the second reset renders it afresh only if it drops the old feeds
    for steps in (1, 8):
        observations = check(env.reset())
        for _ in range(steps):
            observations = check(
                env.step({aid: ActionEnvelope(aid, obs.time, act(obs)) for aid, obs in observations.items()})
            )
    assert env.state.comments and any(post.likes for post in env.state.posts.values())


# Per step, per agent: (kind, target index into the posts so far).
STEP_ACTIONS = st.lists(st.tuples(st.sampled_from(ACTION_KINDS), st.integers(0, 30)), min_size=6, max_size=6)


@settings(derandomize=True, database=None, deadline=None)
@given(
    st.integers(2, 6),
    st.lists(st.sets(st.integers(0, 5)), min_size=6, max_size=6),
    st.lists(STEP_ACTIONS, max_size=8),
    st.integers(1, 4),
    st.booleans(),
)
def test_every_feed_equals_build_feed_on_random_graphs(n, follow_sets, steps, cap, seeded):
    # mutual follows, agents who follow nobody and own posts with replies:
    # the feed shared by a follow set must be each such viewer's own feed
    profiles = {
        aid: UserProfile(agent=aid, bio=f"user {aid}", follows=follow_sets[aid] - {aid} & set(range(n)))
        for aid in range(n)
    }
    env = SocialEnv(profiles, feed_cap=cap, seed_post="opening post" if seeded else None)

    def check(observations):
        assert {aid: obs.context_text for aid, obs in observations.items()} == {
            aid: reference_context(env, aid) for aid in env.agent_ids
        }

    check(env.reset())
    for actions in steps:
        bodies = {}
        for aid, (kind, target) in zip(env.agent_ids, actions):
            if kind == "create_post":
                bodies[aid] = {"kind": kind, "content": f"{aid}@{env.t}"}
            elif kind == "do_nothing" or not env.state.posts:
                bodies[aid] = {"kind": "do_nothing"}
            else:
                bodies[aid] = {"kind": kind, "content": "re", "target_post": target % len(env.state.posts) + 1}
        check(env.step({aid: ActionEnvelope(aid, env.t, body) for aid, body in bodies.items()}))


def test_star_episode_builds_one_feed_per_follow_set_plus_one_per_replied_viewer(monkeypatch):
    built = []

    def counted(user, *args, **kwargs):
        built.append(user)
        return build_feed(user, *args, **kwargs)

    monkeypatch.setattr(social, "build_feed", counted)
    n = 12
    env = SocialEnv(star_profiles(n), seed_post="opening post")
    rng = random.Random(5)

    def expected_builds():
        # a viewer whose own post drew a reply needs a feed of its own; every
        # other viewer shares its follow set's feed
        replied = {env.state.posts[c.post_id].author for c in env.state.comments.values()}
        shared = {frozenset(env.profiles[aid].follows) for aid in env.agent_ids if aid not in replied}
        return len(shared) + len(replied)

    per_step = []
    env.reset()
    per_step.append((len(built), expected_builds()))
    for _ in range(8):
        built.clear()
        bodies = {}
        for aid in env.agent_ids:
            roll = rng.random()
            if roll < 0.3 or not env.state.posts:
                bodies[aid] = {"kind": "create_post", "content": f"{aid}@{env.t}"}
            elif roll < 0.6:
                target = rng.randint(1, len(env.state.posts))
                bodies[aid] = {"kind": "create_comment", "content": "re", "target_post": target}
            else:
                bodies[aid] = {"kind": "do_nothing"}
        env.step({aid: ActionEnvelope(aid, env.t, body) for aid, body in bodies.items()})
        per_step.append((len(built), expected_builds()))
    assert all(got == want for got, want in per_step), per_step
    # the first steps build two feeds for n viewers; later ones add replied viewers
    assert per_step[0][0] == 2 and max(want for _, want in per_step) > 2


def test_followers_archive_one_shared_feed_per_step():
    n, steps = 16, 6
    rng = random.Random(13)

    def act(prompt):
        shown = [int(pid) for pid in re.findall(r"post (\d+) by", prompt[prompt.rfind("You are a social media user."):])]
        roll = rng.random()
        if roll < 0.3 or not shown:
            body = {"kind": "create_post", "content": f"note {roll:.3f}"}
        elif roll < 0.7:
            body = {"kind": "create_comment", "content": "agreed", "target_post": rng.choice(shown)}
        else:
            body = {"kind": "like_post", "target_post": rng.choice(shown)}
        return CompletionResult(content=json.dumps(body))

    backend = ScriptedBackend(default=act)
    agents = {
        aid: Agent(aid, memory=ChatHistoryMemory(window=4, token_limit=256), backend=backend, world_tag="social")
        for aid in range(n)
    }
    env = SocialEnv(star_profiles(n), seed_post="opening post")
    run_episode(env, agents, max_steps=steps, seed=13)
    assert env.state.comments and any(post.likes for post in env.state.posts.values())

    observed = [entry for agent in agents.values() for entry in agent.memory.entries if entry.role == "observation"]
    assert len(observed) == n * steps
    holders: dict[tuple[int, str], list[int]] = {}
    for entry in observed:
        _, feed, _ = entry.parts
        holders.setdefault((entry.time, feed), []).append(id(feed))
    assert all(len(set(ids)) == 1 for ids in holders.values())
    assert max(len(ids) for ids in holders.values()) >= n - 1

    # every archived string counted once, however many entries hold it
    sizes = {}
    for agent in agents.values():
        for entry in agent.memory.entries:
            for part in (entry.parts,) if isinstance(entry.parts, str) else entry.parts:
                sizes[id(part)] = len(part)
    largest = max(len(entry.content) for entry in observed)
    assert sum(sizes.values()) < 4 * steps * largest


def test_comments_route_messages_to_post_author():
    env = SocialEnv(star_profiles(3), seed_post="hello followers")

    def commenter(obs):
        if obs.agent_id == 1 and obs.time == 0:
            return ActionEnvelope(
                agent_id=1, time=0, body={"kind": "create_comment", "content": "hi!", "target_post": 1}
            )
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"kind": "do_nothing"})

    env.reset()
    obs = env.step({aid: commenter(o) for aid, o in env._observations().items()})
    inbox = obs[0].inbox
    assert len(inbox) == 1
    assert inbox[0].src_agent_id == 1
    assert inbox[0].payload["kind"] == "comment"
    assert obs[1].inbox == [] and obs[2].inbox == []


def test_rejected_action_logged_and_state_unchanged():
    env = SocialEnv(star_profiles(2))

    def bad(obs):
        return ActionEnvelope(agent_id=obs.agent_id, time=obs.time, body={"kind": "like_post", "target_post": 42})

    env.reset()
    env.step({0: bad(o) for o in [env._observations()[0]]})
    rejects = [r for r in env.events.snapshot() if r.action == "reject_action"]
    assert rejects
    assert not env.state.posts


def test_event_info_fields_match_reference_shapes():
    env, log = run_social(7)
    for record in log.records:
        if record.action == "create_post":
            assert set(record.info) == {"content", "post_id"}
        elif record.action == "create_comment":
            assert set(record.info) == {"content", "comment_id", "post_id"}
        elif record.action == "like_post":
            assert set(record.info) == {"post_id"}
