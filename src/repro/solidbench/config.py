"""SolidBench generator configuration.

Scale calibration: SolidBench's default settings (paper §4.2) produce
1,531 pods, 158,233 RDF files, and 3,556,159 triples — roughly 103 files
and 2,323 triples per pod.  Our defaults reproduce those per-pod ratios;
``scale`` multiplies the person count (``scale=1.0`` ≈ the paper's scale,
benches default to small scales for speed).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Fragmentation", "SolidBenchConfig", "PAPER_SCALE_TARGETS"]

#: The dataset statistics the paper reports for the default SolidBench scale.
PAPER_SCALE_TARGETS = {
    "pods": 1531,
    "files": 158233,
    "triples": 3556159,
    "files_per_pod": 158233 / 1531,
    "triples_per_file": 3556159 / 158233,
}


class Fragmentation(str, Enum):
    """How a person's messages are distributed over pod documents.

    ``DATED`` (SolidBench's composite default): one document per creation
    date, e.g. ``posts/2010-10-12`` — the layout visible in the paper's
    Fig. 4 waterfall.  ``SINGLE`` puts all messages of a kind in one
    document; ``PER_RESOURCE`` gives every message its own document.
    """

    DATED = "dated"
    SINGLE = "single"
    PER_RESOURCE = "per-resource"


@dataclass(frozen=True)
class SolidBenchConfig:
    """Deterministic generator parameters.

    All randomness is drawn from ``random.Random(seed)``; identical configs
    produce byte-identical universes.
    """

    scale: float = 0.02
    seed: int = 42
    host: str = "https://solidbench.example"
    fragmentation: Fragmentation = Fragmentation.DATED

    # Per-person activity (means; actual values are seeded-random per person).
    posts_per_person: int = 35
    comments_per_person: int = 40
    likes_per_person: int = 30
    knows_per_person: int = 25
    albums_per_person: int = 8
    noise_files_per_person: int = 18
    noise_triples_per_file: int = 75
    tags_per_message: int = 3

    # The time window messages are spread over (matches LDBC SNB).
    start_year: int = 2010
    end_year: int = 2012

    #: Publish a per-pod source index at ``settings/cardinality`` (class
    #: partitions, predicate sets, cardinalities, predicate ranges) linked
    #: from the WebID via ``subweb:cardinalityIndex`` — what a pod must
    #: publish for source selection, which runs in every execution, to skip
    #: its irrelevant containers (DESIGN.md §4g).  ``False`` builds the
    #: paper-shaped pods — no index, so every reachable document is
    #: crawled — that E1–E14 and the waterfall goldens reproduce.
    emit_hints: bool = True

    @property
    def person_count(self) -> int:
        return max(2, round(PAPER_SCALE_TARGETS["pods"] * self.scale))
