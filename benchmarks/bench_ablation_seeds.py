"""Ablation: do the headline shapes survive a different world seed?

The study world is a pure function of one integer seed.  This benchmark
rebuilds the *client side* of the world under an alternative seed and
checks that the qualitative findings are seed-independent (the
server-side is pinned by the catalog and does not vary).
"""

from repro.core.compare import compare_datasets, drifted
from repro.core.tables import render_table
from repro.inspector.dataset import InspectorDataset
from repro.inspector.generator import WorldGenerator

ALT_SEED = 7


def test_seed_stability(benchmark, dataset, corpus, emit):
    def build_alt():
        world = WorldGenerator(seed=ALT_SEED).generate()
        return InspectorDataset.from_world(world)

    alt_dataset = benchmark.pedantic(build_alt, rounds=1, iterations=1)
    deltas = compare_datasets(dataset, alt_dataset, corpus)
    rows = [[delta.name, round(delta.baseline, 4),
             round(delta.candidate, 4), delta.tolerance]
            for delta in deltas]
    emit("ablation_seeds", render_table(
        ["headline", "seed 2023", f"seed {ALT_SEED}", "tolerance"], rows,
        title="Ablation — seed stability of the client-side headlines"))
    assert drifted(deltas) == []
