"""Experiment harness: every runner produces well-formed, renderable
results at a tiny scale, with the paper's qualitative shape."""

from __future__ import annotations

import json

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.common import (
    DELTA_GRIDS,
    PHI_GRIDS,
    PREFIX_SAMPLES,
    build_datasets,
)
from repro.experiments.report import render, save_result

SMALL = dict(scale=0.15, seed=1)
FEW_MOTIFS = ["M(3,2)", "M(3,3)"]


class TestCommon:
    def test_build_datasets_all(self):
        bundles = build_datasets(**SMALL)
        assert [b.name for b in bundles] == ["Bitcoin", "Facebook", "Passenger"]
        for bundle in bundles:
            assert bundle.graph.num_edges > 0

    def test_build_datasets_selection(self):
        [bundle] = build_datasets(names=["Facebook"], **SMALL)
        assert bundle.name == "Facebook"
        assert bundle.delta == 600 and bundle.phi == 3

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            build_datasets(names=["Twitter"], **SMALL)

    def test_unknown_motif_rejected(self):
        [bundle] = build_datasets(names=["Bitcoin"], **SMALL)
        with pytest.raises(ValueError, match="unknown motifs"):
            bundle.motifs(["M(9,9)"])

    def test_grids_cover_all_datasets(self):
        for grids in (DELTA_GRIDS, PHI_GRIDS, PREFIX_SAMPLES):
            assert set(grids) == {"Bitcoin", "Facebook", "Passenger"}


class TestRunners:
    @pytest.mark.parametrize("name", ["table3", "table4", "fig8", "fig12"])
    def test_table_experiments_render(self, name):
        kwargs = dict(SMALL)
        kwargs["datasets"] = ["Facebook"]
        if name != "table3":
            kwargs["motifs"] = FEW_MOTIFS
        result = EXPERIMENTS[name](**kwargs)
        assert result["name"] == name
        assert result["tables"]
        text = render(result)
        assert name in text or result["title"] in text
        json.dumps(result)  # must be JSON-able

    @pytest.mark.parametrize("name", ["fig9", "fig10", "fig11", "fig13"])
    def test_series_experiments_render(self, name):
        result = EXPERIMENTS[name](
            datasets=["Facebook"], motifs=FEW_MOTIFS, **SMALL
        )
        assert result["series"]
        for series in result["series"]:
            for line in series["lines"].values():
                assert len(line) == len(series["x"])
        render(result, markdown=True)
        json.dumps(result)

    def test_fig14_small(self):
        result = EXPERIMENTS["fig14"](
            datasets=["Facebook"], motifs=["M(3,2)"], num_random=3, **SMALL
        )
        [table] = result["tables"]
        [row] = table["rows"]
        assert row[0] == "M(3,2)"
        k_of_n, p_value = row[-2], row[-1]
        k = int(k_of_n.split(" of ")[0])
        assert k_of_n.endswith(" of 3") and p_value == round((k + 1) / 4, 3)
        json.dumps(result)


class TestQualitativeShape:
    """The paper's headline shapes at small scale."""

    def test_fig9_counts_grow_with_delta(self):
        result = EXPERIMENTS["fig9"](
            datasets=["Passenger"], motifs=["M(3,2)"], scale=0.3, seed=0
        )
        counts = result["series"][0]["lines"]["M(3,2)"]
        assert counts[-1] >= counts[0]

    def test_fig10_counts_drop_with_phi(self):
        result = EXPERIMENTS["fig10"](
            datasets=["Passenger"], motifs=["M(3,2)"], scale=0.3, seed=0
        )
        counts = result["series"][0]["lines"]["M(3,2)"]
        assert counts[0] >= counts[-1]

    def test_fig11_kth_flow_decreases(self):
        result = EXPERIMENTS["fig11"](
            datasets=["Passenger"], motifs=["M(3,2)"], scale=0.3, seed=0
        )
        flows = result["series"][0]["lines"]["M(3,2)"]
        assert flows == sorted(flows, reverse=True)


class TestPersistence:
    def test_save_result(self, tmp_path):
        result = EXPERIMENTS["table3"](datasets=["Facebook"], **SMALL)
        path = save_result(result, str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["name"] == "table3"
