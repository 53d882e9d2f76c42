"""Frame-native exploration layer: property tests and regression pins.

The key property: the numpy Pareto kernel (``pareto_front_frame`` /
``pareto_mask``) and the object-based ``pareto_front`` wrapper must agree
*exactly* — same rows, same stable order — with a straight re-implementation
of the original Python domination loop, on random frames including
duplicate-metric ties and single-point frames.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheConfig
from repro.core.results import POLICY_TABLE, ConfigResult, ResultsFrame, SimulationResults
from repro.errors import ExplorationError
from repro.explore.energy import EnergyModel
from repro.explore.pareto import (
    ParetoPoint,
    metric_matrix,
    pareto_front,
    pareto_front_frame,
    pareto_mask,
    size_missrate_front,
)
from repro.explore.tuner import CacheTuner, TuningConstraints
from repro.types import ReplacementPolicy


def reference_pareto_front(points: List[ParetoPoint]) -> List[ParetoPoint]:
    """The original object-level O(n^2) loop, kept verbatim as the oracle."""
    front = []
    for candidate in points:
        dominated = False
        for other in points:
            if other is candidate:
                continue
            if other.dominates(candidate):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front


@st.composite
def result_frames(draw) -> ResultsFrame:
    """Random frames with plenty of metric ties (small value ranges)."""
    keys = draw(
        st.lists(
            st.tuples(
                st.integers(0, 5),                      # log2 num_sets
                st.integers(1, 6),                      # associativity
                st.integers(2, 5),                      # log2 block_size
                st.integers(0, len(POLICY_TABLE) - 1),  # policy code
            ),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    # Tiny miss range on a fixed access count forces duplicate miss rates;
    # the (sets, assoc, block) grid forces duplicate total sizes.
    misses = draw(
        st.lists(st.integers(0, 4), min_size=len(keys), max_size=len(keys))
    )
    return ResultsFrame(
        [2**s for s, _, _, _ in keys],
        [a for _, a, _, _ in keys],
        [2**b for _, _, b, _ in keys],
        [p for _, _, _, p in keys],
        [10] * len(keys),
        misses,
        [0] * len(keys),
    )


def _points_from_frame(frame: ResultsFrame) -> List[ParetoPoint]:
    return [
        ParetoPoint(
            result.config,
            (float(result.config.total_size), float(result.miss_rate)),
        )
        for result in frame
    ]


class TestParetoKernelAgreesWithObjectOracle:
    @settings(max_examples=120, deadline=None)
    @given(frame=result_frames())
    def test_frame_kernel_matches_reference_loop(self, frame):
        points = _points_from_frame(frame)
        oracle = reference_pareto_front(points)
        indices = pareto_front_frame(frame, ("total_size", "miss_rate"))
        assert [frame.config_at(int(row)) for row in indices] == [
            point.config for point in oracle
        ]

    @settings(max_examples=120, deadline=None)
    @given(frame=result_frames())
    def test_object_wrapper_matches_reference_loop(self, frame):
        points = _points_from_frame(frame)
        oracle = reference_pareto_front(points)
        front = pareto_front(points)
        # Same objects, same (stable) order — not just equal values.
        assert [id(point) for point in front] == [id(point) for point in oracle]

    @settings(max_examples=120, deadline=None)
    @given(frame=result_frames())
    def test_general_arity_kernel_matches_reference_loop(self, frame):
        """Metric arities other than 2 take the pairwise broadcast kernel."""
        for metrics in (("misses",), ("total_size", "miss_rate", "misses")):
            points = [
                ParetoPoint(
                    result.config,
                    tuple(float(result.as_dict()[name] if name != "total_size"
                                else result.config.total_size) for name in metrics),
                )
                for result in frame
            ]
            oracle = reference_pareto_front(points)
            indices = pareto_front_frame(frame, metrics)
            assert [frame.config_at(int(row)) for row in indices] == [
                point.config for point in oracle
            ]

    def test_single_point_frame(self):
        frame = ResultsFrame([4], [2], [16], [0], [100], [7], [0])
        assert list(pareto_front_frame(frame)) == [0]
        points = _points_from_frame(frame)
        assert pareto_front(points) == points


class TestParetoRegressions:
    def test_stable_order_and_duplicate_ties_pinned(self):
        """Ties with identical metrics all survive, in input order."""
        a = ParetoPoint(CacheConfig(1, 1, 4), (1.0, 5.0))
        b = ParetoPoint(CacheConfig(2, 1, 4), (2.0, 3.0))
        c = ParetoPoint(CacheConfig(4, 1, 4), (2.0, 3.0))  # duplicate of b
        d = ParetoPoint(CacheConfig(8, 1, 4), (3.0, 4.0))  # dominated by b/c
        e = ParetoPoint(CacheConfig(16, 1, 4), (4.0, 1.0))
        front = pareto_front([a, b, c, d, e])
        assert front == [a, b, c, e]
        assert front[1] is b and front[2] is c

    def test_empty_and_arity_checks(self):
        assert pareto_front([]) == []
        with pytest.raises(ExplorationError):
            pareto_front([
                ParetoPoint(CacheConfig(1, 1, 4), (1.0,)),
                ParetoPoint(CacheConfig(2, 1, 4), (1.0, 2.0)),
            ])
        with pytest.raises(ExplorationError):
            pareto_mask(np.zeros(3))

    def test_mask_duplicates_survive(self):
        mask = pareto_mask(np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]))
        assert mask.tolist() == [True, True, False]

    def test_metric_matrix_accepts_arrays_and_rejects_bad_shapes(self):
        frame = ResultsFrame([1, 2], [1, 1], [16, 16], [0, 0], [10, 10], [1, 2], [0, 0])
        custom = np.array([3.0, 1.0])
        matrix = metric_matrix(frame, ("total_size", custom))
        assert matrix.shape == (2, 2)
        assert matrix[:, 1].tolist() == [3.0, 1.0]
        with pytest.raises(ExplorationError):
            metric_matrix(frame, (np.zeros(5),))


class TestFrameNativeEnergyAndTuner:
    def _frame(self) -> ResultsFrame:
        results = [
            ConfigResult(CacheConfig(16, 1, 16), accesses=1000, misses=400),
            ConfigResult(CacheConfig(64, 2, 16), accesses=1000, misses=150),
            ConfigResult(CacheConfig(256, 2, 16), accesses=1000, misses=60),
            ConfigResult(CacheConfig(512, 4, 32), accesses=1000, misses=20),
            ConfigResult(CacheConfig(1024, 8, 64), accesses=1000, misses=18),
        ]
        return ResultsFrame.from_results(results)

    def test_estimate_frame_matches_scalar_estimates_bitwise(self):
        frame = self._frame()
        model = EnergyModel()
        columns = model.estimate_frame(frame)
        for row in range(len(frame)):
            scalar = model.estimate(frame.result_at(row))
            assert columns.estimate_at(row) == scalar
            assert float(columns.total_energy_nj[row]) == scalar.total_energy_nj

    def test_frame_estimate_equality_is_identity_not_a_crash(self):
        frame = self._frame()
        model = EnergyModel()
        first = model.estimate_frame(frame)
        second = model.estimate_frame(frame)
        assert first == first
        assert first != second  # identity semantics: no array truth-value crash
        assert len({first, second}) == 2  # hashable

    def test_estimate_frame_empty_rows(self):
        frame = ResultsFrame([4], [2], [16], [0], [0], [0], [0])
        columns = EnergyModel().estimate_frame(frame)
        assert columns.average_access_time_ns[0] == 0.0

    def test_tune_frame_matches_object_tune(self):
        frame = self._frame()
        results = SimulationResults.from_frame(frame)
        for objective in ("misses", "energy", "edp", "amat"):
            tuner = CacheTuner(objective=objective)
            from_frame = tuner.tune_frame(frame)
            from_objects = tuner.tune(results)
            assert from_frame.best == from_objects.best
            assert from_frame.objective_value == from_objects.objective_value
            assert from_frame.candidates_admitted == from_objects.candidates_admitted

    def test_admit_mask_matches_scalar_admits(self):
        frame = self._frame()
        model = EnergyModel()
        energy = model.estimate_frame(frame)
        constraints = TuningConstraints(
            max_total_size=64 << 10,
            max_miss_rate=0.2,
            min_associativity=2,
            max_associativity=8,
            max_energy_nj=float(np.median(energy.total_energy_nj)),
        )
        mask = constraints.admit_mask(frame, energy)
        for row in range(len(frame)):
            expected = constraints.admits(frame.result_at(row), energy.estimate_at(row))
            assert bool(mask[row]) == expected

    def test_rank_frame_matches_object_rank(self):
        frame = self._frame()
        tuner = CacheTuner(objective="misses")
        frame_ranked = tuner.rank_frame(frame, top=3)
        object_ranked = tuner.rank(SimulationResults.from_frame(frame), top=3)
        assert [o.best for o in frame_ranked] == [o.best for o in object_ranked]
        assert len(frame_ranked) == 3

    def test_tune_tolerates_exact_duplicate_rows(self):
        # Concatenated result lists sharing a config (e.g. DEW's free
        # direct-mapped by-products) worked with the old object loop and
        # must keep working through the frame wrapper.
        rows = list(SimulationResults.from_frame(self._frame()))
        duplicated = rows + rows[:2]
        tuner = CacheTuner(objective="misses")
        assert tuner.tune(duplicated).best == tuner.tune(rows).best

    def test_tune_rejects_conflicting_duplicates(self):
        config = CacheConfig(64, 2, 16)
        with pytest.raises(ExplorationError, match="conflicting duplicate"):
            CacheTuner().tune([
                ConfigResult(config, accesses=100, misses=5),
                ConfigResult(config, accesses=100, misses=7),
            ])

    def test_tune_frame_unsatisfiable(self):
        with pytest.raises(ExplorationError):
            CacheTuner().tune_frame(self._frame(), TuningConstraints(max_total_size=8))

    def test_rank_frame_distinguishes_mechanism_rows(self):
        # A bare cache and a mechanism rider share the same cache geometry;
        # ranked outcomes must not collapse them into one ambiguous label.
        from repro.engine import get_engine
        from repro.trace.trace import Trace

        trace = Trace([i * 8 for i in range(32)] * 4, name="tune")
        bare = get_engine("single", num_sets=2, associativity=2, block_size=8, policy="fifo")
        bare.run(trace)
        rider = get_engine(
            "victim-cache", num_sets=2, associativity=2, block_size=8, entries=4
        )
        rider.run(trace)
        frame = ResultsFrame.merge(
            [bare.finalize("tune").frame(), rider.finalize("tune").frame()],
            trace_name="tune",
        )
        outcomes = CacheTuner(objective="misses").rank_frame(frame, top=2)
        labels = [outcome.label() for outcome in outcomes]
        assert len(set(labels)) == 2
        by_mechanism = {outcome.mechanism: outcome.as_dict() for outcome in outcomes}
        assert by_mechanism["victim-cache"]["config"].endswith("+victim-cachex4")
        assert by_mechanism["victim-cache"]["mechanism_entries"] == 4
        assert "mechanism" not in by_mechanism["none"]

    def test_tie_break_prefers_smaller_then_canonical_order(self):
        # Two configs with identical miss counts and identical total size:
        # the canonical earlier row (smaller num_sets first) must win.
        results = [
            ConfigResult(CacheConfig(8, 4, 16, ReplacementPolicy.FIFO), accesses=100, misses=5),
            ConfigResult(CacheConfig(16, 2, 16, ReplacementPolicy.FIFO), accesses=100, misses=5),
            ConfigResult(CacheConfig(32, 2, 16, ReplacementPolicy.FIFO), accesses=100, misses=9),
        ]
        frame = ResultsFrame.from_results(results)
        outcome = CacheTuner(objective="misses").tune_frame(frame)
        assert outcome.best.config == CacheConfig(8, 4, 16, ReplacementPolicy.FIFO)

    def test_size_missrate_front_consistent_with_frame_path(self):
        frame = self._frame()
        front = size_missrate_front(SimulationResults.from_frame(frame))
        indices = pareto_front_frame(frame, ("total_size", "miss_rate"))
        assert [point.config for point in front] == [
            frame.config_at(int(row)) for row in indices
        ]


class TestDivideAndConquerKernel:
    """The arity >= 3 divide-and-conquer kernel vs the pairwise/object oracles."""

    @staticmethod
    def _reference_mask(values: np.ndarray) -> np.ndarray:
        points = [
            ParetoPoint(CacheConfig(1, 1, 4), tuple(float(v) for v in row))
            for row in values
        ]
        oracle = reference_pareto_front(points)
        keep_ids = {id(point) for point in oracle}
        return np.asarray([id(point) in keep_ids for point in points], dtype=bool)

    def test_divide_matches_reference_with_forced_recursion(self):
        from repro.explore.pareto import _pareto_mask_divide, _pareto_mask_pairwise

        rng = np.random.default_rng(42)
        for arity in (3, 4):
            for rows in (1, 2, 7, 50, 300):
                # Tiny value range forces heavy duplicate/tie structure.
                values = rng.integers(0, 4, size=(rows, arity)).astype(np.float64)
                expected = _pareto_mask_pairwise(values)
                for threshold in (2, 3, 16):
                    got = _pareto_mask_divide(values, threshold=threshold)
                    assert got.tolist() == expected.tolist(), (
                        f"arity={arity} rows={rows} threshold={threshold}"
                    )

    def test_divide_matches_object_oracle_small(self):
        from repro.explore.pareto import _pareto_mask_divide

        rng = np.random.default_rng(7)
        for arity in (3, 4):
            values = rng.integers(0, 3, size=(40, arity)).astype(np.float64)
            assert (
                _pareto_mask_divide(values, threshold=4).tolist()
                == self._reference_mask(values).tolist()
            )

    def test_public_path_routes_large_arity3_through_divide(self):
        """pareto_mask on > DIVIDE_THRESHOLD rows must equal the pairwise kernel."""
        from repro.explore.pareto import (
            DIVIDE_THRESHOLD,
            _pareto_mask_pairwise,
        )

        rng = np.random.default_rng(11)
        rows = DIVIDE_THRESHOLD * 3 + 17
        for arity in (3, 4):
            values = rng.integers(0, 6, size=(rows, arity)).astype(np.float64)
            assert (
                pareto_mask(values).tolist()
                == _pareto_mask_pairwise(values).tolist()
            )

    def test_duplicate_rows_straddling_the_split_all_survive(self):
        from repro.explore.pareto import _pareto_mask_divide

        # Four identical non-dominated rows plus one dominated row; with
        # threshold=2 the duplicates are guaranteed to land in different
        # recursion halves.
        values = np.asarray(
            [[1.0, 1.0, 1.0]] * 4 + [[2.0, 2.0, 2.0]], dtype=np.float64
        )
        mask = _pareto_mask_divide(values, threshold=2)
        assert mask.tolist() == [True, True, True, True, False]

    @settings(max_examples=60, deadline=None)
    @given(frame=result_frames())
    def test_arity_three_frame_path_matches_reference_loop(self, frame):
        """End-to-end: arity-3 fronts via the public API vs the object loop."""
        metrics = ("total_size", "miss_rate", "misses")
        points = [
            ParetoPoint(
                result.config,
                (
                    float(result.config.total_size),
                    float(result.miss_rate),
                    float(result.misses),
                ),
            )
            for result in frame
        ]
        oracle = reference_pareto_front(points)
        indices = pareto_front_frame(frame, metrics)
        assert [frame.config_at(int(row)) for row in indices] == [
            point.config for point in oracle
        ]
