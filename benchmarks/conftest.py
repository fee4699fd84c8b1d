"""Shared fixtures for the benchmark suite.

Benchmarks run on reduced-scale datasets (``BENCH_SCALE``) so the whole
suite finishes in minutes on a laptop while preserving every qualitative
shape the paper reports. Graphs and engines are session-scoped: dataset
generation is shared across benchmarks, exactly like the paper's
experiments reuse one loaded dataset.
"""

from __future__ import annotations

import pytest

from repro.core.engine import FlowMotifEngine
from repro.core.motif import paper_motifs
from repro.datasets.synthetic import DATASET_GENERATORS

BENCH_SCALE = 0.35
BENCH_SEED = 0

#: Motifs used by per-motif benchmarks: one chain and one cycle per size
#: keeps the suite fast while spanning the catalog's difficulty range.
BENCH_MOTIF_NAMES = ["M(3,2)", "M(3,3)", "M(4,4)A", "M(5,4)"]


def _build(name):
    generator, delta, phi = DATASET_GENERATORS[name]
    graph = generator(scale=BENCH_SCALE, seed=BENCH_SEED)
    return graph, delta, phi


@pytest.fixture(scope="session")
def bitcoin():
    return _build("Bitcoin")


@pytest.fixture(scope="session")
def facebook():
    return _build("Facebook")


@pytest.fixture(scope="session")
def passenger():
    return _build("Passenger")


@pytest.fixture(scope="session")
def datasets(bitcoin, facebook, passenger):
    return {
        "Bitcoin": bitcoin,
        "Facebook": facebook,
        "Passenger": passenger,
    }


@pytest.fixture(scope="session")
def engines(datasets):
    """One engine per dataset."""
    return {
        name: FlowMotifEngine(graph) for name, (graph, _, _) in datasets.items()
    }


def bench_motifs(delta, phi, names=None):
    """The benchmark motif subset bound to the dataset's constraints."""
    catalog = paper_motifs(delta, phi)
    return {
        name: catalog[name] for name in (names or BENCH_MOTIF_NAMES)
    }
