"""Unit tests for links and the link queue."""

import ast
from pathlib import Path

import pytest

from repro.ltqp.links import (
    QUEUE_POLICIES,
    Link,
    LinkQueue,
    QueueSample,
    QueuePolicyContext,
    build_queue,
    queue_factory_for,
)


def make(policy: str) -> LinkQueue:
    return build_queue(queue_factory_for(policy), QueuePolicyContext())


class TestFifoQueue:
    def test_fifo_order(self):
        queue = make("fifo")
        queue.push(Link("https://h/a"))
        queue.push(Link("https://h/b"))
        assert queue.pop().url == "https://h/a"
        assert queue.pop().url == "https://h/b"

    def test_deduplication(self):
        queue = make("fifo")
        assert queue.push(Link("https://h/a"))
        assert not queue.push(Link("https://h/a"))
        assert len(queue) == 1

    def test_fragment_stripped_for_dedup(self):
        queue = make("fifo")
        queue.push(Link("https://h/doc#me"))
        assert not queue.push(Link("https://h/doc#other"))
        assert queue.pop().url == "https://h/doc"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            make("fifo").pop()

    def test_has_seen(self):
        queue = make("fifo")
        queue.push(Link("https://h/a#frag"))
        assert queue.has_seen("https://h/a")
        assert queue.has_seen("https://h/a#x")
        assert not queue.has_seen("https://h/b")

    def test_counters(self):
        queue = make("fifo")
        queue.push(Link("https://h/a"))
        queue.push(Link("https://h/b"))
        queue.pop()
        assert queue.pushed_total == 2
        assert queue.popped_total == 1
        assert not queue.empty

    def test_samples_recorded(self):
        queue = make("fifo")
        queue.push(Link("https://h/a"))
        queue.pop()
        samples = queue.samples
        assert len(samples) == 2
        assert samples[0].queue_length == 1
        assert samples[1].queue_length == 0

    def test_samples_are_a_snapshot_read_as_queue_samples(self):
        queue = make("fifo")
        queue.push(Link("https://h/a"))
        queue.push(Link("https://h/b"))
        snapshot = queue.samples
        queue.pop()
        assert len(snapshot) == 2 and len(queue.samples) == 3
        last = queue.samples[-1]
        assert isinstance(last, QueueSample)
        assert (last.queue_length, last.pushed_total, last.popped_total) == (1, 2, 1)
        assert all(
            type(value) is int
            for sample in queue.samples
            for value in (sample.queue_length, sample.pushed_total, sample.popped_total)
        )
        assert [s.queue_length for s in queue.samples[1:]] == [2, 1]


class TestPriorityQueue:
    def test_depth_ordering(self):
        queue = make("priority")
        queue.push(Link("https://h/deep", depth=3))
        queue.push(Link("https://h/shallow", depth=1))
        assert queue.pop().url == "https://h/shallow"

    def test_extractor_rank_breaks_ties(self):
        queue = make("priority")
        queue.push(Link("https://h/data", depth=1, via="match"))
        queue.push(Link("https://h/index", depth=1, via="type-index"))
        assert queue.pop().url == "https://h/index"

    def test_custom_priority(self):
        queue = LinkQueue(lambda link, seq: (len(link.url),))
        queue.push(Link("https://h/looooong"))
        queue.push(Link("https://h/x"))
        assert queue.pop().url == "https://h/x"

    def test_insertion_order_for_equal_priority(self):
        queue = make("priority")
        queue.push(Link("https://h/a", depth=1, via="match"))
        queue.push(Link("https://h/b", depth=1, via="match"))
        assert queue.pop().url == "https://h/a"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            make("priority").pop()


class TestFairQueue:
    def test_interleaves_across_origins(self):
        queue = make("fair")
        # Push origin-clustered (the pathological arrival order for FIFO):
        # all of a's links, then all of b's, then all of c's.
        for origin in ("a", "b", "c"):
            for i in range(3):
                queue.push(Link(f"https://{origin}.example/{i}"))
        popped = [queue.pop().url for _ in range(9)]
        origins = [url.split("/")[2].split(".")[0] for url in popped]
        # Every consecutive window of 3 pops serves all three origins.
        assert origins == ["a", "b", "c"] * 3

    def test_heavy_origin_cannot_starve_light_origin(self):
        queue = make("fair")
        for i in range(1000):
            queue.push(Link(f"https://hog.example/{i}"))
        for i in range(3):
            queue.push(Link(f"https://light.example/{i}"))
        first_light = next(
            position
            for position in range(1, 1004)
            if queue.pop().url.startswith("https://light")
        )
        # The light origin joined the rotation at the back of round 1, so
        # it waits at most one round — one pop from each other origin.
        assert first_light <= 2

    def test_every_light_link_within_one_round(self):
        queue = make("fair")
        for i in range(1000):
            queue.push(Link(f"https://hog.example/{i}"))
        for i in range(3):
            queue.push(Link(f"https://light.example/{i}"))
        positions = [
            position
            for position in range(1, 1004)
            if queue.pop().url.startswith("https://light")
        ]
        # With 2 origins a round is 2 pops: every light link is served
        # within 2 pops of the previous one, regardless of the 1000 hogs.
        assert len(positions) == 3
        assert all(b - a <= 2 for a, b in zip(positions, positions[1:]))

    def test_drained_origin_leaves_rotation(self):
        queue = make("fair")
        queue.push(Link("https://a.example/0"))
        queue.push(Link("https://b.example/0"))
        queue.push(Link("https://b.example/1"))
        assert queue.pop().url == "https://a.example/0"
        # a's lane is empty now; the remaining pops are b's alone.
        assert queue.pop().url == "https://b.example/0"
        assert queue.pop().url == "https://b.example/1"
        assert queue.empty

    def test_late_origin_joins_back_of_rotation(self):
        queue = make("fair")
        queue.push(Link("https://a.example/0"))
        queue.push(Link("https://a.example/1"))
        queue.push(Link("https://c.example/0"))
        assert queue.pop().url == "https://a.example/0"
        queue.push(Link("https://b.example/0"))
        # b arrives mid-round: its first link waits behind the first links
        # already waiting (c's), and pops before any earlier origin's next.
        assert [queue.pop().url for _ in range(3)] == [
            "https://c.example/0",
            "https://b.example/0",
            "https://a.example/1",
        ]

    def test_requeue_and_dedup_still_apply(self):
        queue = make("fair")
        assert queue.push(Link("https://a.example/0"))
        assert not queue.push(Link("https://a.example/0"))
        queue.pop()
        queue.requeue(Link("https://a.example/0", attempts=1))
        assert queue.pop().attempts == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            make("fair").pop()


class TestLinkOrigin:
    """The queue stamps a link's origin once, on admission; what accounts
    per origin downstream (the fair score, budgets, refusals) reads the stamp."""

    @pytest.mark.parametrize("policy", sorted(QUEUE_POLICIES))
    def test_stamped_on_admission_and_kept_through_requeue(self, policy, monkeypatch):
        from repro.ltqp import links

        splits = []
        real = links.split_url
        monkeypatch.setattr(links, "split_url", lambda url: splits.append(url) or real(url))
        queue = make(policy)
        assert Link("https://h:8443/pods/a#me").origin == ""  # not queued yet
        queue.push(Link("https://h:8443/pods/a#me"))
        popped = queue.pop()
        assert (popped.url, popped.origin) == ("https://h:8443/pods/a", "https://h:8443")
        queue.requeue(popped)
        assert queue.pop().origin == "https://h:8443"
        assert splits == ["https://h:8443/pods/a"]  # once per link, not per hop

    def test_unparseable_urls_share_the_empty_origin(self):
        queue = make("fair")
        queue.push(Link("ftp://elsewhere/x"))
        queue.push(Link("mailto:someone"))
        assert [queue.pop().origin, queue.pop().origin] == ["", ""]


class TestLink:
    def test_seed_detection(self):
        assert Link("https://h/a").is_seed
        assert not Link("https://h/a", parent_url="https://h/b").is_seed


class TestQueuePolicyRegistry:
    def test_policies_map_to_queue_classes(self):
        assert set(QUEUE_POLICIES) == {"fifo", "lifo", "priority", "fair", "guided"}
        # One queue class: every discipline is a score it takes on admission.
        for policy in QUEUE_POLICIES:
            assert type(make(policy)) is LinkQueue

    def test_src_defines_no_queue_subclass_and_no_rescore(self):
        # A discipline that needs a subclass or a re-score is a second
        # queue; it is a score taken once per admission instead.
        import repro

        subclasses, rescores = [], []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", None)) == "LinkQueue"
                    for base in node.bases
                ):
                    subclasses.append(f"{path.name}:{node.name}")
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name == "rescore":
                        rescores.append(path.name)
        assert subclasses == [] and rescores == []

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown queue policy"):
            queue_factory_for("random")
