"""Whole-edge validation: bit-identity against the scalar reference.

Property tests (Hypothesis) that :meth:`motion_results_batch` — the stacked
whole-edge kernel path with its conservative AABB broadphase — returns, for
every checker variant, exactly the verdict and the per-phase OpCounter
totals of the scalar reference's start-side early-exit walk, and that
``motion_in_collision`` does too on both sides of the problem size at which
it switches from the per-movement path to the whole-edge kernel; plus
planner-level wave/scalar bit-equality at W in {1, 4, 16} and mask-equality
of the broadphased kernels against the full grids they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collision import WHOLE_EDGE_MIN_PAIRS, make_checker
from repro.core.config import PlannerConfig
from repro.core.counters import OpCounter
from repro.core.robots import get_robot
from repro.core.rrtstar import plan
from repro.geometry.motion import interpolate_configs, interpolate_edges
from repro.kernels import batch as kernels_batch
from repro.kernels.tensors import BodyBatch
from repro.workloads.generator import random_task

CHECKER_NAMES = ("obb", "aabb", "two_stage", "grid")

ROBOT = get_robot("mobile2d")
ENV = random_task("mobile2d", 12, seed=3).environment
RESOLUTION = ROBOT.step_size / 4.0

#: One scene on each side of WHOLE_EDGE_MIN_PAIRS: (robot, environment,
#: whether single movements run the whole-edge kernel).  mobile2d has one
#: body OBB (12 pairs per configuration), rozum four (128 pairs).
SCENES = (
    (ROBOT, ENV, False),
    (get_robot("rozum"), random_task("rozum", 32, seed=3).environment, True),
)


def _scalar_reference(golden, start, end):
    """The golden semantics: per-config walk from the start side.

    Returns (verdict, captured counter) using the reference backend's
    scalar single-config check.
    """
    configs = interpolate_configs(start, end, golden.motion_resolution)
    captured = OpCounter()
    for config in configs:
        if golden._config_scalar(config, captured):
            return True, captured
    return False, captured


@st.composite
def edge_batches(draw, robot):
    """1-5 short random movements inside the robot's configuration bounds."""
    n = draw(st.integers(1, 5))
    dof = robot.dof
    unit = st.floats(0.0, 1.0, allow_nan=False)
    lo, hi = robot.config_lo, robot.config_hi
    u = np.array([[draw(unit) for _ in range(dof)] for _ in range(n)])
    v = np.array([[draw(unit) for _ in range(dof)] for _ in range(n)])
    lengths = np.array([draw(st.floats(0.0, 2.0)) for _ in range(n)])
    starts = lo + u * (hi - lo)
    deltas = (v - 0.5) * 2.0
    norms = np.linalg.norm(deltas, axis=1, keepdims=True)
    deltas = np.where(norms > 1e-9, deltas / np.maximum(norms, 1e-9), 1.0)
    ends = np.clip(
        starts + deltas * lengths[:, None] * robot.step_size, lo, hi
    )
    return starts, ends


class TestWholeEdgeBitIdentity:
    @pytest.mark.parametrize("name", CHECKER_NAMES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_reference(self, name, data):
        """Whole-edge verdicts and counters equal the golden scalar walk,
        and so do ``motion_in_collision``'s on either side of the
        crossover between its two paths."""
        # The grid checker has no batched path to choose between.
        scenes = SCENES[:1] if name == "grid" else SCENES
        for robot, env, whole_edge in scenes:
            resolution = robot.step_size / 4.0
            checker = make_checker(name, robot, env, resolution)
            golden = make_checker(name, robot, env, resolution, kernels="reference")
            pairs = robot.num_body_obbs * env.num_obstacles
            assert (pairs >= WHOLE_EDGE_MIN_PAIRS) == whole_edge
            assert checker._whole_edge_motions == whole_edge
            starts, ends = data.draw(edge_batches(robot))
            results = checker.motion_results_batch(starts, ends)
            assert len(results) == len(starts)
            for e, (verdict, events) in enumerate(results):
                gold_verdict, gold_events = _scalar_reference(
                    golden, starts[e], ends[e]
                )
                assert verdict == gold_verdict
                assert events.to_dict() == gold_events.to_dict()
                captured = OpCounter()
                assert checker.motion_in_collision(
                    starts[e], ends[e], captured
                ) == gold_verdict
                assert captured.to_dict() == gold_events.to_dict()


class TestWavePlannerBitIdentity:
    @pytest.mark.parametrize("name", CHECKER_NAMES)
    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_wave_equals_scalar_speculation(self, name, width):
        """plan(wave_width=W) is bit-identical to plan(speculation_depth=W).

        wave_width = 1 degenerates to the plain scalar loop (depth 0).
        """
        depth = width if width > 1 else 0
        task = random_task("mobile2d", 10, seed=6)
        robot = get_robot("mobile2d")
        scalar = plan(robot, task, PlannerConfig(
            checker=name, max_samples=150, seed=5, speculation_depth=depth,
        ))
        wave = plan(robot, task, PlannerConfig(
            checker=name, max_samples=150, seed=5, wave_width=width,
        ))
        assert len(scalar.path) == len(wave.path)
        for a, b in zip(scalar.path, wave.path):
            assert np.array_equal(a, b)
        assert scalar.path_cost == wave.path_cost
        assert scalar.counter.to_dict() == wave.counter.to_dict()


class TestBroadphaseMaskEquality:
    """The AABB broadphase must reproduce the full grids bit-for-bit."""

    def _bodies(self, seed=0, edges=6):
        rng = np.random.default_rng(seed)
        lo, hi = ROBOT.config_lo, ROBOT.config_hi
        starts = rng.uniform(lo, hi, size=(edges, ROBOT.dof))
        ends = np.clip(
            starts + rng.normal(size=(edges, ROBOT.dof)) * ROBOT.step_size,
            lo, hi,
        )
        configs, offsets = interpolate_edges(starts, ends, RESOLUTION)
        bodies = BodyBatch.from_frames(*ROBOT.body_frames_batch(configs))
        bpc = bodies.rows // int(offsets[-1])
        return bodies, np.asarray(offsets, dtype=np.intp) * bpc

    def test_edge_obb_obb_grid_equals_full_grid(self):
        obs = ENV.obstacle_tensors
        bodies, row_offsets = self._bodies()
        lo, hi = bodies.aabb_corners()
        hits, visited = kernels_batch.edge_obb_obb_grid(
            bodies.centers, bodies.half_extents, bodies.rotations, lo, hi,
            obs.centers, obs.half_extents, obs.rotations,
            obs.aabb_lo, obs.aabb_hi, row_offsets,
        )
        full = kernels_batch.obb_obb_grid(
            bodies.centers, bodies.half_extents, bodies.rotations,
            obs.centers, obs.half_extents, obs.rotations,
        )
        ref_hits, ref_visited = kernels_batch.segment_first_hit(
            full, row_offsets * full.shape[1]
        )
        assert np.array_equal(hits, ref_hits)
        assert np.array_equal(visited, ref_visited)

    def test_edge_aabb_obb_grid_equals_full_grid(self):
        obs = ENV.obstacle_tensors
        bodies, row_offsets = self._bodies(seed=1)
        lo, hi = bodies.aabb_corners()
        hits, visited = kernels_batch.edge_aabb_obb_grid(
            obs.aabb_lo, obs.aabb_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
            lo, hi, row_offsets,
        )
        full = kernels_batch.aabb_obb_grid(
            obs.aabb_lo, obs.aabb_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
        )
        ref_hits, ref_visited = kernels_batch.segment_first_hit(
            full, row_offsets * full.shape[1]
        )
        assert np.array_equal(hits, ref_hits)
        assert np.array_equal(visited, ref_visited)

    def test_masked_aabb_obb_grid_matches_under_prefilter(self):
        """Wherever the prefilter passes, the masked grid equals the full
        grid; everywhere else it is False — exactly what the two-stage
        funnel consumes (always conjoined with the AABB mask)."""
        ftree = ENV.flat_rtree
        bodies, _ = self._bodies(seed=2)
        lo, hi = bodies.aabb_corners()
        prefilter = kernels_batch.aabb_aabb_grid(
            lo, hi, ftree.unit_lo, ftree.unit_hi
        )
        masked = kernels_batch.masked_aabb_obb_grid(
            ftree.unit_lo, ftree.unit_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
            prefilter,
        )
        full = kernels_batch.aabb_obb_grid(
            ftree.unit_lo, ftree.unit_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
        )
        assert np.array_equal(masked & prefilter, full & prefilter)
        assert not (masked & ~prefilter).any()
