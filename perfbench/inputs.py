"""Seeded inputs for the benchmark workloads.

The reference database and cluster shape come from ``spec.json`` and
its fixed seed.  Everything a run issues is derived from the ``--seed``
argument: the reads (with the database sequences each read was stitched
from, which the search oracle needs), the new sequences the ingest
workload inserts, and the gateway's popularity draw.  The program under
test only ever sees the generated records.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bench.workloads import FamilySpec, generate_family_database
from repro.core.params import MendelConfig, QueryParams
from repro.seq.mutate import sample_read
from repro.seq.records import SequenceRecord, SequenceSet

#: 1 / golden ratio: the step of the low-discrepancy length sequence.
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, purpose) pair."""
    return np.random.default_rng([int(seed), int(stream)])


def database(spec: dict) -> SequenceSet:
    """The nr-like reference database described by *spec*."""
    family = FamilySpec(
        families=spec["families"],
        members_per_family=spec["members_per_family"],
        length=spec["length"],
    )
    return generate_family_database(family, rng=rng(spec["seed"], 1))


def copy_of(database: SequenceSet) -> SequenceSet:
    """A fresh set over the same records: ``Mendel.insert`` appends to the
    set a deployment was built from, so every build gets its own."""
    return SequenceSet(alphabet=database.alphabet, records=list(database))


def config(spec: dict) -> MendelConfig:
    return MendelConfig(
        group_count=spec["group_count"], group_size=spec["group_size"],
        seed=spec["seed"],
    )


def params(spec: dict) -> QueryParams:
    return QueryParams(**spec)


def length_at(index: int, low: int, high: int) -> int:
    """Read length of the *index*-th operation.

    Lengths follow a golden-ratio sequence over ``[low, high]``: any run of
    consecutive operations covers the range evenly, so latency quantiles
    do not hinge on which lengths one seed happened to draw.
    """
    frac = (0.5 + index * _PHI) % 1.0
    return int(round(low + frac * (high - low)))


class Read:
    """A query record plus the database sequences it was stitched from."""

    __slots__ = ("record", "sources")

    def __init__(self, record: SequenceRecord, sources: frozenset[str]) -> None:
        self.record = record
        self.sources = sources

    def __len__(self) -> int:
        return len(self.record)


def stitched_read(
    records: list[SequenceRecord],
    length: int,
    gen: np.random.Generator,
    read_id: str,
    error_rate: float = 0.02,
) -> Read:
    """A read of *length* residues stitched from segments of randomly drawn
    database sequences, with per-residue substitution errors."""
    pieces: list[np.ndarray] = []
    sources: set[str] = set()
    remaining = length
    while remaining > 0:
        source = records[int(gen.integers(0, len(records)))]
        take = min(remaining, len(source))
        pieces.append(sample_read(source, take, rng=gen,
                                  error_rate=error_rate).codes)
        sources.add(source.seq_id)
        remaining -= take
    record = SequenceRecord(
        seq_id=read_id, codes=np.concatenate(pieces),
        alphabet=records[0].alphabet,
    )
    return Read(record, frozenset(sources))


def read_stream(database: SequenceSet, seed: int, low: int, high: int,
                prefix: str, stream: int = 2):
    """Endless deterministic reads; the *i*-th has :func:`length_at` length."""
    gen = rng(seed, stream)
    records = list(database)
    index = 0
    while True:
        yield stitched_read(records, length_at(index, low, high), gen,
                            f"{prefix}-{index:05d}")
        index += 1


def new_batches(seed: int, size: int, length: int, alphabet):
    """Endless batches of *size* unrelated new sequences (one family each)
    for ingest; the *n*-th batch's ids start ``new<n>-``."""
    gen = rng(seed, 3)
    spec = FamilySpec(families=size, members_per_family=1, length=length)
    index = 0
    while True:
        yield list(generate_family_database(
            spec, rng=gen, alphabet=alphabet, id_prefix=f"new{index:05d}"))
        index += 1


def request_draws(seed: int, count: int, repeat_share: float,
                  exponent: float) -> list[int]:
    """Pool indices of *count* requests of which exactly
    ``round(repeat_share * count)`` repeat an earlier request.

    A repeat picks among the reads already requested with Zipf(*exponent*)
    popularity by order of first request; every other request is the next
    unseen pool read.  Fixing the repeat count keeps the share of result
    cache hits the same for every seed.
    """
    gen = rng(seed, 5)
    repeats = int(round(repeat_share * count))
    slots = gen.permutation(np.arange(1, count))[:repeats]
    is_repeat = np.zeros(count, dtype=bool)
    is_repeat[slots] = True
    out: list[int] = []
    issued = 0
    for k in range(count):
        if is_repeat[k]:
            weights = 1.0 / np.arange(1, issued + 1, dtype=np.float64) \
                ** exponent
            out.append(int(gen.choice(issued, p=weights / weights.sum())))
        else:
            out.append(issued)
            issued += 1
    return out
