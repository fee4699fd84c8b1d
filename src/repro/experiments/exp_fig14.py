"""Figure 14 — motif significance against flow-permuted random networks.

For every motif: the real instance count, the distribution of counts over
``num_random`` flow permutations (box-plot statistics), the z-score and the
permutation p-value ``(k + 1) / (n + 1)``, next to the raw "k of n" the
paper reports. Expected shape (paper §6.3): real counts far above every
random count ("0 of n", so p = 1 / (n + 1)), positive z-scores throughout;
cyclic motifs among the top z-scores on Bitcoin, chains on Facebook,
acyclic motifs on Passenger.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import build_datasets
from repro.significance.experiment import motif_significance


def run(
    scale: float = 1.0,
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    motifs: Optional[Sequence[str]] = None,
    num_random: int = 20,
) -> dict:
    tables = []
    for bundle in build_datasets(scale=scale, seed=seed, names=datasets):
        catalog = bundle.motifs(motifs)
        results = motif_significance(
            bundle.graph, catalog, num_random=num_random, seed=seed
        )
        rows = []
        for record in results:
            summary = record.summary
            z_text = (
                "inf" if summary.z == float("inf") else f"{summary.z:.2f}"
            )
            rows.append(
                [
                    record.motif_name,
                    record.real_count,
                    round(summary.mean, 1),
                    round(summary.std, 2),
                    int(summary.minimum),
                    round(summary.median, 1),
                    int(summary.maximum),
                    z_text,
                    f"{summary.exceeding} of {summary.num_random}",
                    round(summary.p_value, 3),
                ]
            )
        tables.append(
            {
                "title": (
                    f"{bundle.name} (delta={bundle.delta:g}, phi={bundle.phi:g}, "
                    f"{num_random} permutations)"
                ),
                "headers": [
                    "Motif",
                    "real",
                    "rand mean",
                    "rand std",
                    "rand min",
                    "rand median",
                    "rand max",
                    "z-score",
                    "k of n",
                    "p-value",
                ],
                "rows": rows,
            }
        )
    return {
        "name": "fig14",
        "title": "Figure 14 — significance of motifs vs randomized networks",
        "params": {"scale": scale, "seed": seed, "num_random": num_random},
        "tables": tables,
    }
