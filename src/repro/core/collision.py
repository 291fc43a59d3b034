"""Collision checkers: brute OBB, AABB-only, two-stage, and occupancy grid.

Four interchangeable checkers cover the paper's design space:

* :class:`BruteOBBChecker` — the vanilla RRT\\* checker: every body OBB is
  SAT-tested against every obstacle OBB at every interpolated configuration
  of a movement (the Section II-C cost bottleneck).
* :class:`BruteAABBChecker` — obstacles represented by their AABBs and
  checked with the cheaper AABB-OBB SAT.  Conservative: clear means clear,
  but its false positives degrade path quality (Section III-A, Fig 5/18).
* :class:`TwoStageChecker` — MOPED's contribution (Section III-A): an
  R-tree traversal of AABB-OBB checks filters the obstacle set, and only the
  surviving candidates receive the accurate OBB-OBB second stage.  Decisions
  are *identical* to :class:`BruteOBBChecker` (the filter is conservative
  and the second stage exact) at a fraction of the cost.
* :class:`OccupancyGridChecker` — the CODAcc baseline (ISCA'22, ref [4]):
  the workspace is discretised at one unit per cell and a configuration is
  checked by probing the voxels covered by the robot body.  Conservative by
  construction (voxels are outer approximations).

All checkers share one interface: ``config_in_collision`` for a single
configuration and ``motion_in_collision`` for a movement, which walks the
interpolated configurations from the tree side so collisions are found with
the fewest checks.

Three implementations
---------------------

Every checker answers a check through one of three implementations, all
with the same verdicts and the same per-phase
:class:`~repro.core.counters.OpCounter` totals:

* ``_config_scalar`` — the reference oracle: one Python-level SAT call per
  (configuration, body, obstacle), early-exiting exactly where the
  hardware would.  The ``"reference"`` kernel backend
  (:data:`repro.kernels.KERNEL_BACKENDS`) and the grid checker use it for
  everything.
* ``_batch_check`` — the per-movement path: the geometry of a whole
  movement (every waypoint x every body x every obstacle) is evaluated in
  a few stacked ndarray passes (:mod:`repro.kernels.batch`), and the
  scalar control flow is then *replayed* over the boolean masks, recording
  aggregated counter events straight into the caller's counter.  It serves
  ``config_in_collision`` and, on small problems, single movements.
* ``_batch_motion_results`` — the whole-edge kernel.  VAMP ("Motions in
  Microseconds") shows that validating the *entire* interpolated edge as
  one wide batched operation is where sampling-based planners find their
  orders of magnitude.  :meth:`CollisionChecker.motion_results_batch`
  builds the ladders of a batch of edges in one vectorized pass
  (:func:`repro.geometry.motion.interpolate_edges`), runs forward
  kinematics once over all ladder rows (``body_frames_batch``), and
  evaluates the (configs x links x obstacles) SAT grids behind a
  conservative AABB broadphase in one stacked kernel invocation whose
  per-edge early-exit statistics come from segment reductions
  (:func:`repro.kernels.batch.segment_first_hit` and friends).  The
  wavefront planner feeds a whole wave of speculative edges through one
  call.

``motion_in_collision`` picks between the last two once, when the checker
is built, by the size of the SAT grid per configuration (body OBBs x
obstacles, :data:`WHOLE_EDGE_MIN_PAIRS`): the whole-edge kernel's fixed
costs pay off on arms among tens of obstacles, the per-movement path wins
on small robots in sparse scenes.  Registry metrics (``repro_cc_*``) count
*executed* work per path, while OpCounters always report the modeled
hardware cost.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.counters import OpCounter
from repro.core.robots import RobotModel
from repro.core.world import Environment
from repro.geometry.motion import interpolate_configs, interpolate_edges
from repro.kernels import KERNEL_BACKENDS, batch as kernels_batch
from repro.kernels.tensors import BodyBatch
from repro.obs import bump, observe
from repro.geometry.obb import OBB
from repro.geometry.sat import aabb_intersects_obb, obb_intersects_obb

#: Ladder-length histogram buckets for ``repro_cc_edge_ladder_steps``:
#: steered planner edges sit in the single digits (resolution = step / 4),
#: rewire-radius edges in the tens, workspace-scale probes beyond.
LADDER_STEP_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

#: Body-obstacle pairs per configuration (``robot.num_body_obbs *
#: environment.num_obstacles``) from which ``motion_in_collision`` runs the
#: whole-edge kernel instead of the per-movement path.  Measured sweep:
#: per-movement time / whole-edge time for single edges of 0.5-1 steering
#: steps (two-stage checker, batch backend, median over three scenes per
#: point, 2-core Xeon x86_64, Python 3.11, numpy 2.4):
#:
#:   pairs  8    mobile2d/8    0.74-0.78    pairs  56   xarm7/8      1.21
#:   pairs  16   drone3d/16    0.89-0.91    pairs  64   rozum/16     1.09-1.12
#:   pairs  32   mobile2d/32   0.93         pairs  64   mobile2d/64  1.20
#:   pairs  32   drone3d/32    0.89         pairs  64   drone3d/64   1.06
#:   pairs  32   rozum/8       0.96-1.09    pairs  112  xarm7/16     1.24
#:   pairs  48   viperx300/16  1.06-1.18    pairs  128  rozum/32     1.25
#:                                          pairs  224  xarm7/32     1.51
#:
#: Below about 32 pairs the per-movement path's lower fixed cost wins,
#: from about 48 up the whole-edge kernel's broadphase does; 64 sits above
#: the noisy band in between.
WHOLE_EDGE_MIN_PAIRS = 64


class CollisionChecker:
    """Base class wiring a robot model to an environment.

    Args:
        kernels: ``"batch"`` evaluates movement checks through the
            vectorized kernels with exact count replay; ``"reference"``
            keeps the original scalar per-object loops.
    """

    #: Subclasses with a vectorized movement check set this True; others
    #: (the grid checker) always run the scalar per-configuration loop.
    _has_batch_kernels = False

    def __init__(
        self,
        robot: RobotModel,
        environment: Environment,
        motion_resolution: float,
        kernels: str = "batch",
    ):
        if robot.workspace_dim != environment.workspace_dim:
            raise ValueError(
                f"robot workspace dim {robot.workspace_dim} != "
                f"environment dim {environment.workspace_dim}"
            )
        if motion_resolution <= 0:
            raise ValueError("motion_resolution must be positive")
        if kernels not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown kernel backend {kernels!r}; available: {KERNEL_BACKENDS}"
            )
        self.robot = robot
        self.environment = environment
        self.motion_resolution = motion_resolution
        self.kernels = kernels
        # True when checks run through the stacked kernels (batch backend, a
        # checker that has them, and obstacles to test against).
        self._batched = bool(
            kernels == "batch"
            and self._has_batch_kernels
            and environment.num_obstacles
        )
        self._whole_edge_motions = self._batched and (
            robot.num_body_obbs * environment.num_obstacles
            >= WHOLE_EDGE_MIN_PAIRS
        )
        # ``edge.validate`` fault hook: bound once (checkers are built per
        # plan, after any injector install) and refreshed by the planner at
        # plan() time; None in the steady state, one is-None check per edge.
        from repro.faults import get_injector

        self._injector = get_injector()

    def config_in_collision(self, config: np.ndarray, counter=None) -> bool:
        """True when the robot at ``config`` intersects any obstacle."""
        config = np.asarray(config, dtype=float)
        return self._check_configs(config[None, :], counter)

    def motion_in_collision(self, start: np.ndarray, end: np.ndarray, counter=None) -> bool:
        """True when the movement from ``start`` to ``end`` hits an obstacle.

        The straight C-space segment is discretised at ``motion_resolution``
        and each configuration checked from the ``start`` side, stopping at
        the first collision.  Above :data:`WHOLE_EDGE_MIN_PAIRS` this is the
        single-edge case of :meth:`motion_results_batch`, its captured
        events merged into ``counter``; below it the per-movement path
        (:meth:`_check_configs`) records straight into ``counter``.  Both
        are bit-identical to the scalar per-configuration walk (integer
        cost weights), which the whole-edge property tests pin.
        """
        bump("repro_cc_motion_checks_total",
             help="Motion (edge) collision queries issued")
        start = np.asarray(start, dtype=float)
        end = np.asarray(end, dtype=float)
        if self._whole_edge_motions:
            verdict, events = self.motion_results_batch(start[None, :], end[None, :])[0]
            if counter is not None:
                counter.merge(events)
            return verdict
        injector = self._injector
        if injector is not None:
            injector.fire("edge.validate")
        configs = interpolate_configs(start, end, self.motion_resolution)
        observe("repro_cc_edge_ladder_steps", len(configs) - 1,
                help="Interpolation ladder length per validated edge",
                buckets=LADDER_STEP_BUCKETS)
        bump("repro_cc_edge_validations_total",
             path="movement" if self._batched else "scalar",
             help="Edge validations by execution path")
        return self._check_configs(configs, counter)

    # ----------------------------------------------------- whole-edge results

    def motion_results_batch(self, starts, ends) -> List[tuple]:
        """Whole-edge ``(verdict, events)`` for a batch of movements.

        For each edge ``e`` the returned verdict and captured
        :class:`OpCounter` equal what the scalar reference's start-side
        early-exit walk of ``interpolate_configs(starts[e], ends[e])``
        decides and records.  All edges share one ladder construction, one
        forward-kinematics batch, and one stacked kernel pass; the
        reference backend and the grid checker walk each ladder with the
        scalar loop instead.

        The wavefront planner calls this once per wave with every
        speculative edge.  Counter events are *captured* (not recorded into
        a caller counter) so the planner can charge each edge to its own
        per-round sub-counter; integer cost weights make the merged totals
        bitwise equal to direct recording.
        """
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        count = len(starts)
        if not count:
            return []
        injector = self._injector
        if injector is not None:
            for _ in range(count):
                injector.fire("edge.validate")
        configs, offsets = interpolate_edges(starts, ends, self.motion_resolution)
        if self._batched:
            bodies = BodyBatch.from_frames(*self.robot.body_frames_batch(configs))
            results = self._batch_motion_results(bodies, offsets)
        else:
            # Unbatched, _check_configs is the scalar per-configuration walk.
            results = []
            for e in range(count):
                captured = OpCounter()
                verdict = self._check_configs(
                    configs[offsets[e]:offsets[e + 1]], captured
                )
                results.append((verdict, captured))
        for steps in (np.diff(offsets) - 1).tolist():
            observe("repro_cc_edge_ladder_steps", steps,
                    help="Interpolation ladder length per validated edge",
                    buckets=LADDER_STEP_BUCKETS)
        bump("repro_cc_edge_validations_total", count,
             path="edge_kernel" if self._batched else "scalar",
             help="Edge validations by execution path")
        return results

    def _batch_motion_results(self, bodies: BodyBatch, offsets: np.ndarray):
        """Per-edge ``(verdict, events)`` over stacked ladder body rows.

        ``offsets`` bounds each edge's configuration block (body rows are
        ``bodies_per_config`` times that).  Implemented per checker from
        the :mod:`repro.kernels.batch` edge entry points.
        """
        raise NotImplementedError

    @staticmethod
    def _edge_replay(hits, visited, kind: str, dim: int) -> List[tuple]:
        """Per-edge replay of segment early-exit statistics.

        ``visited[e]`` SAT tests of ``kind`` are what the scalar loop
        records for edge ``e`` before its early exit; one aggregated record
        per edge reproduces those totals exactly (integer cost weights).
        """
        pairs = []
        for hit, n in zip(hits.tolist(), visited.tolist()):
            captured = OpCounter()
            if n:
                captured.record(kind, dim=dim, n=int(n))
            pairs.append((bool(hit), captured))
        return pairs

    # ----------------------------------------------------------- dispatch

    def _check_configs(self, configs: np.ndarray, counter) -> bool:
        """Collision verdict over ordered configurations (first hit wins).

        The per-movement path behind ``config_in_collision`` and, below
        :data:`WHOLE_EDGE_MIN_PAIRS`, single movements.  On the batch
        backend every waypoint's geometry is computed in one FK batch and
        one kernel pass, then the scalar waypoint/body/obstacle iteration
        is replayed over the masks; configurations past the first
        colliding one therefore contribute no counter events, exactly like
        the scalar early exit.  Otherwise this is the scalar reference
        loop.
        """
        if self._batched:
            bodies = BodyBatch.from_frames(*self.robot.body_frames_batch(configs))
            return self._batch_check(bodies, counter)
        for config in configs:
            if self._config_scalar(config, counter):
                return True
        return False

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        """Scalar single-configuration check (the reference code path)."""
        raise NotImplementedError

    def _batch_check(self, bodies: BodyBatch, counter) -> bool:
        """Vectorized check over a :class:`BodyBatch` of waypoint rows."""
        raise NotImplementedError

    @staticmethod
    def _replay_flat(mask: np.ndarray, kind: str, dim: int, counter) -> bool:
        """Replay a scalar early-exit scan over a flattened boolean mask.

        ``mask`` rows follow the scalar iteration order (row-major over the
        (configuration, body, obstacle) nest).  The scalar loop records one
        ``kind`` event per test and returns at the first hit; the replay
        records the same number of events in one aggregated call.
        """
        flat = mask.ravel()
        hit = bool(flat.any())
        if counter is not None:
            n = int(np.argmax(flat)) + 1 if hit else flat.size
            if n:
                counter.record(kind, dim=dim, n=n)
        return hit


class BruteOBBChecker(CollisionChecker):
    """Exhaustive OBB-OBB checking (vanilla RRT\\*)."""

    _has_batch_kernels = True

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        dim = self.environment.workspace_dim
        for body in self.robot.body_obbs(config):
            for obstacle in self.environment.obstacles:
                if counter is not None:
                    counter.record("sat_obb_obb", dim=dim)
                if obb_intersects_obb(body, obstacle):
                    return True
        return False

    def _batch_check(self, bodies: BodyBatch, counter) -> bool:
        obs = self.environment.obstacle_tensors
        mask = kernels_batch.obb_obb_grid(
            bodies.centers, bodies.half_extents, bodies.rotations,
            obs.centers, obs.half_extents, obs.rotations,
        )
        # The scalar nest iterates waypoint-major, body-minor, obstacle-
        # innermost: exactly the row-major flattening of ``mask``.
        return self._replay_flat(mask, "sat_obb_obb", obs.dim, counter)

    def _batch_motion_results(self, bodies: BodyBatch, offsets: np.ndarray):
        obs = self.environment.obstacle_tensors
        bpc = bodies.rows // int(offsets[-1])
        lo, hi = bodies.aabb_corners()
        hits, visited = kernels_batch.edge_obb_obb_grid(
            bodies.centers, bodies.half_extents, bodies.rotations, lo, hi,
            obs.centers, obs.half_extents, obs.rotations,
            obs.aabb_lo, obs.aabb_hi,
            np.asarray(offsets, dtype=np.intp) * bpc,
        )
        return self._edge_replay(hits, visited, "sat_obb_obb", obs.dim)


class BruteAABBChecker(CollisionChecker):
    """Exhaustive AABB-OBB checking with AABB-represented obstacles.

    Cheaper per query than :class:`BruteOBBChecker` but over-approximates
    obstacles, so it may flag collision-free movements as colliding.
    """

    _has_batch_kernels = True

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        dim = self.environment.workspace_dim
        for body in self.robot.body_obbs(config):
            for box in self.environment.obstacle_aabbs:
                if counter is not None:
                    counter.record("sat_aabb_obb", dim=dim)
                if aabb_intersects_obb(box, body):
                    return True
        return False

    def _batch_check(self, bodies: BodyBatch, counter) -> bool:
        obs = self.environment.obstacle_tensors
        mask = kernels_batch.aabb_obb_grid(
            obs.aabb_lo, obs.aabb_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
        )
        return self._replay_flat(mask, "sat_aabb_obb", obs.dim, counter)

    def _batch_motion_results(self, bodies: BodyBatch, offsets: np.ndarray):
        obs = self.environment.obstacle_tensors
        bpc = bodies.rows // int(offsets[-1])
        lo, hi = bodies.aabb_corners()
        hits, visited = kernels_batch.edge_aabb_obb_grid(
            obs.aabb_lo, obs.aabb_hi,
            bodies.centers, bodies.half_extents, bodies.rotations, lo, hi,
            np.asarray(offsets, dtype=np.intp) * bpc,
        )
        return self._edge_replay(hits, visited, "sat_aabb_obb", obs.dim)


class TwoStageChecker(CollisionChecker):
    """MOPED's two-stage processing scheme (Section III-A).

    First stage: walk the obstacle R-tree with cheap AABB-OBB checks; clear
    subtrees are skipped wholesale.  Second stage: the surviving leaf
    candidates get the accurate OBB-OBB check.

    With ``fine_stage=False`` the checker stops after the first stage and
    treats every surviving candidate as a collision — the AABB-only MOPED
    variant of Fig 18 (right).

    The batch backend keeps the funnel: stage-1 masks are computed for
    every (waypoint row, R-tree unit) pair in two stacked passes, but the
    exact OBB-OBB SAT is evaluated *only* for the (row, obstacle) pairs
    whose leaf entry passes both stage-1 masks — the same pairs the scalar
    traversal would forward to the second stage.
    """

    _has_batch_kernels = True

    def __init__(
        self,
        robot: RobotModel,
        environment: Environment,
        motion_resolution: float,
        fine_stage: bool = True,
        kernels: str = "batch",
    ):
        super().__init__(robot, environment, motion_resolution, kernels=kernels)
        self.fine_stage = fine_stage
        self._rtree = environment.rtree

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        dim = self.environment.workspace_dim
        for body in self.robot.body_obbs(config):
            if counter is not None:
                counter.record("aabb_derive", dim=dim)
            candidates = self._rtree.query_obb(
                body, counter=counter, prefilter_aabb=body.to_aabb()
            )
            # Filter-efficiency metrics: how many obstacles survive the
            # cheap first stage and reach the exact OBB-OBB second stage.
            bump("repro_cc_stage1_queries_total",
                 help="Two-stage first-stage (R-tree AABB filter) queries")
            if candidates:
                bump("repro_cc_stage1_survivors_total", len(candidates),
                     help="Obstacles surviving the first-stage AABB filter")
            if not self.fine_stage:
                if candidates:
                    return True
                continue
            for idx in candidates:
                if counter is not None:
                    counter.record("sat_obb_obb", dim=dim)
                bump("repro_cc_stage2_checks_total",
                     help="Exact OBB-OBB checks run in the second stage")
                if obb_intersects_obb(body, self.environment.obstacles[idx]):
                    return True
        return False

    def _stage2_hits(self, bodies: BodyBatch, entry_pass: np.ndarray) -> np.ndarray:
        """Exact OBB-OBB verdicts for the stage-1 surviving (row, obstacle)
        pairs, scattered back into an ``(R, M)`` boolean matrix."""
        obs = self.environment.obstacle_tensors
        hits = np.zeros(entry_pass.shape, dtype=bool)
        rows, cols = np.nonzero(entry_pass)
        if rows.size:
            hits[rows, cols] = kernels_batch.obb_obb_pairs(
                bodies.centers[rows], bodies.half_extents[rows],
                bodies.rotations[rows],
                obs.centers[cols], obs.half_extents[cols], obs.rotations[cols],
            )
        return hits

    def _batch_check(self, bodies: BodyBatch, counter) -> bool:
        env = self.environment
        ftree = env.flat_rtree
        dim = env.workspace_dim
        lo, hi = bodies.aabb_corners()
        # Stage-1 masks against every traversal unit (node MBRs, then leaf
        # entry boxes) in two stacked passes, then the per-row traversal
        # statistics via ndarray reductions over the static tree structure.
        aabb_mask = kernels_batch.aabb_aabb_grid(lo, hi, ftree.unit_lo, ftree.unit_hi)
        obb_mask = kernels_batch.aabb_obb_grid(
            ftree.unit_lo, ftree.unit_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
        )
        split = ftree.num_nodes
        n_aabb, n_obb, candidates = ftree.batch_query_counts(
            aabb_mask[:, :split], obb_mask[:, :split],
            aabb_mask[:, split:], obb_mask[:, split:],
        )
        survivors = candidates.sum(axis=1)

        if not self.fine_stage:
            # A row with any surviving candidate is a collision; rows after
            # the first such row are never reached by the scalar loop.
            hit_rows = survivors > 0
            hit = bool(hit_rows.any())
            done = int(np.argmax(hit_rows)) + 1 if hit else bodies.rows
            self._record_stage1(counter, dim, done, n_aabb, n_obb, survivors)
            return hit

        # Second stage, funnelled: the exact SAT runs only on the candidate
        # pairs.  Columns are then permuted into the traversal's static
        # visit order so per-row early-exit counts are cumulative sums.
        stage2 = self._stage2_hits(bodies, candidates)
        order = ftree.entry_order
        cand_ord = candidates[:, order]
        hits_ord = stage2[:, order]
        row_hit = hits_ord.any(axis=1)
        hit = bool(row_hit.any())
        if hit:
            row = int(np.argmax(row_hit))
            done = row + 1
            # Checks in the hitting row stop at the hitting candidate; the
            # candidate's position in visit order is its cumulative count.
            first = int(np.argmax(hits_ord[row]))
            checks = int(survivors[:row].sum()) + int(
                np.count_nonzero(cand_ord[row, : first + 1])
            )
        else:
            done = bodies.rows
            checks = int(survivors.sum())
        self._record_stage1(counter, dim, done, n_aabb, n_obb, survivors)
        if checks:
            if counter is not None:
                counter.record("sat_obb_obb", dim=dim, n=checks)
            bump("repro_cc_stage2_checks_total", checks,
                 help="Exact OBB-OBB checks run in the second stage")
        return hit

    def _batch_motion_results(self, bodies: BodyBatch, offsets: np.ndarray):
        """Whole-edge two-stage results from one stacked traversal pass.

        Stage-1 masks and (for ``fine_stage``) the funnelled exact SAT are
        computed exactly as in :meth:`_batch_check` over *all* edges' body
        rows at once; :func:`repro.kernels.batch.edge_two_stage_counts`
        then reduces each edge's contiguous row block to the scalar loop's
        early-exit totals, so an edge's events equal what the scalar
        reference records for that movement alone.
        """
        env = self.environment
        ftree = env.flat_rtree
        dim = env.workspace_dim
        lo, hi = bodies.aabb_corners()
        aabb_mask = kernels_batch.aabb_aabb_grid(lo, hi, ftree.unit_lo, ftree.unit_hi)
        # The traversal only ever consumes the OBB mask conjoined with the
        # AABB mask (node descent, candidate funnel), so the exact AABB-OBB
        # SAT need only run where the cheap interval test already passed.
        obb_mask = kernels_batch.masked_aabb_obb_grid(
            ftree.unit_lo, ftree.unit_hi,
            bodies.centers, bodies.half_extents, bodies.rotations,
            aabb_mask,
        )
        split = ftree.num_nodes
        n_aabb, n_obb, candidates = ftree.batch_query_counts(
            aabb_mask[:, :split], obb_mask[:, :split],
            aabb_mask[:, split:], obb_mask[:, split:],
        )
        survivors = candidates.sum(axis=1)
        count = len(offsets) - 1
        bpc = bodies.rows // int(offsets[-1])
        row_offsets = np.asarray(offsets, dtype=np.intp) * bpc

        if not self.fine_stage:
            hits, dones, aabb_tot, obb_tot, sur_tot, _ = (
                kernels_batch.edge_two_stage_counts(
                    survivors > 0, n_aabb, n_obb, survivors, row_offsets
                )
            )
            checks_arr = np.zeros(count, dtype=np.int64)
        else:
            stage2 = self._stage2_hits(bodies, candidates)
            order = ftree.entry_order
            cand_ord = candidates[:, order]
            hits_ord = stage2[:, order]
            hits, dones, aabb_tot, obb_tot, sur_tot, last_rows = (
                kernels_batch.edge_two_stage_counts(
                    hits_ord.any(axis=1), n_aabb, n_obb, survivors, row_offsets
                )
            )
            # Misses run the exact SAT on every surviving candidate; hits
            # stop inside the hitting row at the hitting candidate (its
            # position in the traversal's static visit order).
            checks_arr = sur_tot.astype(np.int64).copy()
            for e in np.nonzero(hits)[0]:
                row = int(last_rows[e])
                first = int(np.argmax(hits_ord[row]))
                before = int(sur_tot[e]) - int(survivors[row])
                checks_arr[e] = before + int(
                    np.count_nonzero(cand_ord[row, : first + 1])
                )

        pairs = []
        dones_l = dones.tolist()
        aabb_l = aabb_tot.tolist()
        obb_l = obb_tot.tolist()
        checks_l = checks_arr.tolist()
        for e, hit in enumerate(hits.tolist()):
            captured = OpCounter()
            captured.record("aabb_derive", dim=dim, n=int(dones_l[e]))
            if aabb_l[e]:
                captured.record("sat_aabb_aabb", dim=dim, n=int(aabb_l[e]))
            if obb_l[e]:
                captured.record("sat_aabb_obb", dim=dim, n=int(obb_l[e]))
            if checks_l[e]:
                captured.record("sat_obb_obb", dim=dim, n=int(checks_l[e]))
            pairs.append((bool(hit), captured))
        bump("repro_cc_stage1_queries_total", int(dones.sum()),
             help="Two-stage first-stage (R-tree AABB filter) queries")
        total_survivors = int(sur_tot.sum())
        if total_survivors:
            bump("repro_cc_stage1_survivors_total", total_survivors,
                 help="Obstacles surviving the first-stage AABB filter")
        total_checks = int(checks_arr.sum())
        if total_checks:
            bump("repro_cc_stage2_checks_total", total_checks,
                 help="Exact OBB-OBB checks run in the second stage")
        return pairs

    @staticmethod
    def _record_stage1(counter, dim: int, done: int, n_aabb, n_obb, survivors) -> None:
        """Record the stage-1 work of the first ``done`` rows (the rows the
        scalar loop processes before returning)."""
        if counter is not None:
            counter.record("aabb_derive", dim=dim, n=done)
            total_aabb = int(n_aabb[:done].sum())
            if total_aabb:
                counter.record("sat_aabb_aabb", dim=dim, n=total_aabb)
            total_obb = int(n_obb[:done].sum())
            if total_obb:
                counter.record("sat_aabb_obb", dim=dim, n=total_obb)
        bump("repro_cc_stage1_queries_total", done,
             help="Two-stage first-stage (R-tree AABB filter) queries")
        total_survivors = int(survivors[:done].sum())
        if total_survivors:
            bump("repro_cc_stage1_survivors_total", total_survivors,
                 help="Obstacles surviving the first-stage AABB filter")


class OccupancyGridChecker(CollisionChecker):
    """CODAcc-style occupancy-grid checking (baseline of Section V-B).

    The grid is built offline by rasterising every obstacle OBB at
    ``resolution`` units per cell (paper setting: 1.0).  A configuration is
    in collision when any grid cell covered by a body OBB is occupied.  The
    checker is conservative: cells partially covered by an obstacle are
    marked occupied, so clear means clear.

    Attributes:
        grid: boolean occupancy array.
        grid_bytes: storage the grid needs at one bit per cell — with the
            paper's 300^3 workspace this exceeds 3.2 MB, the on-chip memory
            pressure the paper charges against the CODAcc baseline.
    """

    def __init__(
        self,
        robot: RobotModel,
        environment: Environment,
        motion_resolution: float,
        resolution: float = 1.0,
        kernels: str = "batch",
    ):
        super().__init__(robot, environment, motion_resolution, kernels=kernels)
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self._cells = int(math.ceil(environment.size / resolution))
        # Cell-centre coordinates per axis, computed once for the whole
        # obstacle batch (and reused by every query); rasterisation slices
        # this instead of rebuilding per-obstacle centre grids.
        self._axis_centers = (np.arange(self._cells) + 0.5) * resolution
        shape = (self._cells,) * environment.workspace_dim
        self.grid = np.zeros(shape, dtype=bool)
        for obstacle in environment.obstacles:
            self._rasterise(obstacle)

    @property
    def grid_bytes(self) -> int:
        """Grid storage at one bit per cell."""
        return int(math.ceil(self.grid.size / 8))

    def _index_range(self, box) -> Optional[Tuple[slice, ...]]:
        """Grid index slices covering an AABB, clipped to the workspace."""
        lo_idx = np.clip(np.floor(box.lo / self.resolution).astype(int), 0, self._cells)
        hi_idx = np.clip(np.ceil(box.hi / self.resolution).astype(int), 0, self._cells)
        if np.any(lo_idx >= hi_idx):
            return None
        return tuple(slice(int(lo_idx[d]), int(hi_idx[d])) for d in range(box.dim))

    def _region_inside(self, region: Tuple[slice, ...], obb: OBB, pad: float = 0.0):
        """Mask of region cells whose centres fall inside the (padded) OBB.

        Returned flat (C-order raveled over the region), matching how
        ``grid[region]`` ravels.
        """
        mesh = np.meshgrid(*(self._axis_centers[s] for s in region), indexing="ij")
        centers = np.stack([m.ravel() for m in mesh], axis=1)
        local = (centers - obb.center) @ obb.rotation
        return np.all(np.abs(local) <= obb.half_extents + pad, axis=1)

    def _rasterise(self, obstacle: OBB) -> None:
        """Mark every cell whose centre region intersects ``obstacle``.

        Cells are tested at their centres with the obstacle's half-extents
        padded by half a cell diagonal, a conservative cover.
        """
        region = self._index_range(obstacle.to_aabb())
        if region is None:
            return
        pad = 0.5 * self.resolution * math.sqrt(obstacle.dim)
        inside = self._region_inside(region, obstacle, pad=pad)
        self.grid[region] |= inside.reshape(self.grid[region].shape)

    def _config_scalar(self, config: np.ndarray, counter) -> bool:
        for body in self.robot.body_obbs(config):
            region = self._index_range(body.to_aabb())
            if region is None:
                continue
            inside = self._region_inside(region, body)
            probes = int(np.count_nonzero(inside))
            if counter is not None and probes:
                counter.record(
                    "grid_lookup", dim=self.environment.workspace_dim, n=probes
                )
            if probes and bool(np.any(self.grid[region].reshape(-1)[inside])):
                return True
        return False


CHECKERS = {
    "obb": BruteOBBChecker,
    "aabb": BruteAABBChecker,
    "two_stage": TwoStageChecker,
    "grid": OccupancyGridChecker,
}


def make_checker(
    name: str, robot: RobotModel, environment: Environment, motion_resolution: float, **kwargs
) -> CollisionChecker:
    """Factory over the checker registry."""
    try:
        cls = CHECKERS[name]
    except KeyError:
        raise KeyError(f"unknown checker {name!r}; available: {sorted(CHECKERS)}") from None
    return cls(robot, environment, motion_resolution, **kwargs)
