"""The scenario generators: determinism and the shapes they promise."""

import pytest

from repro.core.delay import is_unbounded
from repro.core.graph import EdgeKind
from repro.qa.generators import SCENARIOS, case_stream, generate_case
from repro.qa.serialize import graphs_equal


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 123, 4096])
    def test_same_seed_same_graph(self, seed):
        a = generate_case(seed)
        b = generate_case(seed)
        assert a.scenario == b.scenario
        assert graphs_equal(a.graph, b.graph)

    def test_seed_rotation_covers_every_scenario(self):
        names = {case.scenario for case in case_stream(0, len(SCENARIOS))}
        assert names == set(SCENARIOS)

    def test_explicit_scenario_pins_builder(self):
        case = generate_case(11, scenario="anchor_dense")
        assert case.scenario == "anchor_dense"

    def test_case_stream_seeds_are_contiguous(self):
        seeds = [case.seed for case in case_stream(40, 5)]
        assert seeds == [40, 41, 42, 43, 44]


class TestScenarioShapes:
    def test_numpy_gate_draws_from_its_fixed_band(self):
        # 58-74 operations plus the source and the sink: the band is a
        # literal, so retuning the kernel's gate moves no seeded case.
        sizes = [len(generate_case(seed, scenario="numpy_gate").graph.vertices())
                 for seed in range(40)]
        assert min(sizes) == 60 and max(sizes) == 76

    def test_anchor_dense_has_anchor_majority_on_average(self):
        ratios = []
        for seed in range(20):
            graph = generate_case(seed, scenario="anchor_dense").graph
            ratios.append(len(graph.anchors) / len(graph.vertices()))
        assert sum(ratios) / len(ratios) > 0.4

    def test_zero_weight_cycle_places_max_constraints(self):
        kinds = set()
        for seed in range(20):
            graph = generate_case(seed, scenario="zero_weight_cycle").graph
            kinds.update(e.kind for e in graph.edges())
        assert EdgeKind.MAX_TIME in kinds

    def test_ill_posed_chain_is_polar_with_multiple_anchors(self):
        for seed in range(10):
            graph = generate_case(seed, scenario="ill_posed_chain").graph
            anchors = [a for a in graph.anchors if a != graph.source]
            assert len(anchors) >= 2
            assert any(e.kind is EdgeKind.MAX_TIME for e in graph.edges())
            # polar: every vertex reachable from the source going forward
            order = graph.forward_topological_order()
            assert order[0] == graph.source and order[-1] == graph.sink

    def test_unbounded_delays_present_in_every_scenario(self):
        for scenario in SCENARIOS:
            found = False
            for seed in range(15):
                graph = generate_case(seed, scenario=scenario).graph
                if any(is_unbounded(v.delay) for v in graph.vertices()
                       if v.name != graph.source):
                    found = True
                    break
            assert found, f"{scenario} never produced an anchor"


class TestBatchCorpus:
    def test_corpus_is_deterministic(self):
        from repro.qa.generators import batch_corpus

        a = batch_corpus(42, 30, n_unique=10)
        b = batch_corpus(42, 30, n_unique=10)
        assert len(a) == len(b) == 30
        assert all(graphs_equal(x, y) for x, y in zip(a, b))

    def test_corpus_mixes_verdicts_and_isomorphs(self):
        from repro.core.canonical import canonical_key
        from repro.core.wellposed import WellPosedness, check_well_posed
        from repro.qa.generators import batch_corpus

        corpus = batch_corpus(43, 60, n_unique=15, unfeasible_share=0.2)
        verdicts = set()
        for graph in corpus:
            try:
                verdicts.add(check_well_posed(graph.copy()))
            except Exception:
                pass
        assert WellPosedness.WELL_POSED in verdicts
        assert WellPosedness.UNFEASIBLE in verdicts
        keys = [canonical_key(g) for g in corpus]
        keyed = [k for k in keys if k is not None]
        # Renamed isomorphs dominate: far fewer distinct keys than graphs.
        assert len(set(keyed)) < len(keyed)

    def test_renamed_isomorph_preserves_structure_not_names(self):
        import random

        from repro.core.canonical import canonical_key
        from repro.qa.generators import chain_ladder_graph, renamed_isomorph

        rng = random.Random(44)
        g = chain_ladder_graph(rng, 10, 14)
        h = renamed_isomorph(g, rng)
        assert set(v.name for v in h.vertices()) != set(
            v.name for v in g.vertices())
        assert len(h.vertices()) == len(g.vertices())
        assert len(h.edges()) == len(g.edges())
        if canonical_key(g) is not None:
            assert canonical_key(h) == canonical_key(g)
