"""The RRT\\* planning loop shared by the baseline and every MOPED variant.

One parameterised planner implements the Section II-B processing scheme —
sample, nearest-neighbor, steer, collision check, choose-parent, rewire —
with the collision checker and neighbor-search strategy injected through
:class:`~repro.core.config.PlannerConfig`.  The MOPED presets
(:func:`~repro.core.config.moped_config`) select the paper's optimisations;
the defaults reproduce the original RRT\\* baseline.

The planner also hosts the *functional* speculate-and-repair model
(Section IV-B): with ``speculation_depth = k``, the nearest-neighbor search
of each round is blinded to the nodes inserted in the previous ``k`` rounds
(they are still in flight in the hardware pipeline) and a repair step then
compares the speculated result against those pending nodes — the Missing
Neighbors Buffer.  The repaired result is provably the true nearest
neighbor, so planning outcomes are identical with and without speculation
(a tested invariant mirroring the paper's "functionally equivalent" claim).

One loop serves every wave width ``W = wave_width``.  Each wave draws
``W`` samples and commits them *in order*; at W = 1 that is the sequential
loop above.  When W > 1 the wave first runs a speculative stage: it
evaluates the nearest-neighbor distance matrix, speculative steering, and
the collision check of every speculative edge as single batched kernel
calls against a snapshot of the tree, and the commits follow the semantics
of ``speculation_depth = W`` — a sample whose speculative result is
invalidated by an intra-wave accept is repaired exactly like a
pending-node miss.  Every counter event of a round is replayed at commit
time (batched arithmetic feeds verdicts, not counts), so paths, costs, and
OpCounter totals are bit-identical to W = 1 at the equivalent speculation
depth.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.core.collision import make_checker
from repro.core.config import PlannerConfig
from repro.core.counters import OpCounter
from repro.obs import PhaseRecorder, bump
from repro.core.informed import InformedSampler
from repro.core.metrics import PlanResult, RoundRecord
from repro.core.neighbors import make_strategy
from repro.core.rng import LFSRSampler, NumpySampler
from repro.core.robots import RobotModel
from repro.core.tree import ExpTree
from repro.core.world import PlanningTask

# Operation kinds executed on each hardware unit, used to split a round's
# counter diff into per-unit loads for the pipeline timing model.
_NS_KINDS = ("dist", "mindist", "plane_compare", "buffer_read", "rebuild_item")
_CC_KINDS = ("sat_obb_obb", "sat_aabb_obb", "sat_aabb_aabb", "aabb_derive", "grid_lookup")
_MAINT_KINDS = ("enlargement", "mbr_update", "insert_direct", "split")


class _RunState:
    """Mutable bookkeeping of one planner run: goals, rounds and budgets."""

    __slots__ = (
        "goal_nodes", "first_solution", "rounds", "cost_history",
        "best_known", "pending", "deadline", "op_budget", "degraded_reason",
        "cancel", "armed",
    )

    def __init__(self, config: PlannerConfig):
        self.goal_nodes: List[int] = []
        self.first_solution: Optional[int] = None
        self.rounds: List[RoundRecord] = []
        self.cost_history: List[tuple] = []
        self.best_known = float("inf")
        # (round index, node id) pairs still "in flight" for speculation.
        self.pending: Deque[Tuple[int, int]] = deque()
        # Anytime-planning budgets: a monotonic wall deadline and a MAC
        # budget.  None = disabled; the loops guard every poll with
        # ``armed`` so absent budgets cost nothing and perturb neither RNG
        # streams nor operation counts.
        self.op_budget: Optional[float] = config.op_budget
        self.deadline: Optional[float] = None
        if config.deadline_s is not None:
            self.deadline = time.monotonic() + config.deadline_s
        self.degraded_reason: Optional[str] = None
        # Cooperative cancellation (portfolio racing): a zero-arg predicate
        # polled alongside the budgets.  None = no race in flight.
        from repro.core import cancel as _cancel
        self.cancel = _cancel.active()
        self.armed = (self.deadline is not None or self.op_budget is not None
                      or self.cancel is not None)

    def budget_expired(self, *counters: OpCounter) -> bool:
        """Poll cancellation and budgets; records the reason on expiry.

        The MAC total is the sum over ``counters`` (the committed counter,
        plus the current round's sub-counter when polled mid-round).  Past
        arming the deadline, this is the planners' only clock read.
        """
        if self.cancel is not None and self.cancel():
            self.degraded_reason = "cancelled"
            return True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.degraded_reason = "deadline"
            return True
        if (self.op_budget is not None
                and sum(c.total_macs() for c in counters) >= self.op_budget):
            self.degraded_reason = "op_budget"
            return True
        return False


def build_parts(robot: RobotModel, task: PlanningTask, config: PlannerConfig):
    """The collision checker, neighbor-strategy factory and sampler that
    ``config`` selects, built in one place for every planner loop.

    Returns ``(checker, new_strategy, sampler)``; ``new_strategy()`` builds
    a fresh neighbor index (RRT-Connect needs one per tree).
    """
    if task.start.shape != (robot.dof,) or task.goal.shape != (robot.dof,):
        raise ValueError(
            f"task configurations must be {robot.dof}-dimensional for {robot.name}"
        )
    checker_kwargs = {"kernels": config.kernels}
    if config.checker == "two_stage":
        checker_kwargs["fine_stage"] = config.fine_stage
    checker = make_checker(
        config.checker, robot, task.environment,
        config.resolved_motion_resolution(robot.step_size), **checker_kwargs
    )
    new_strategy = functools.partial(
        make_strategy,
        config.neighbor_strategy,
        robot.dof,
        steering_insert=config.steering_insert,
        approx_neighborhood=config.approx_neighborhood,
        capacity=config.simbr_capacity,
        kd_rebuild_every=config.kd_rebuild_every,
        approx_scope=config.approx_scope,
    )
    sampler_cls = {"numpy": NumpySampler, "lfsr": LFSRSampler}.get(config.sampler)
    if sampler_cls is None:
        raise KeyError(f"unknown sampler {config.sampler!r}; use 'numpy' or 'lfsr'")
    sampler = sampler_cls(robot.config_lo, robot.config_hi, seed=config.seed)
    if config.informed:
        sampler = InformedSampler(sampler, task.start, task.goal, seed=config.seed)
    return checker, new_strategy, sampler


class _PlannerLoop:
    """What RRT\\* and RRT-Connect share around their run loops.

    :meth:`plan` arms the run (budgets, cancellation, fault injector, the
    ``plan`` trace span), calls the subclass's ``_run`` and turns its
    outcome into a :class:`PlanResult` through ``_finish``.  Subclasses
    plant their tree roots in ``_plant``.
    """

    #: Extra attributes of the ``plan`` trace span.
    span_attrs: dict = {}

    def __init__(self, robot: RobotModel, task: PlanningTask, config: PlannerConfig):
        self.checker, self._new_strategy, self.sampler = build_parts(robot, task, config)
        self.robot = robot
        self.task = task
        self.config = config
        self.step = config.resolved_step(robot.step_size)

    def plan(self) -> PlanResult:
        """Run the sampling loop and return the planning outcome."""
        config, robot = self.config, self.robot
        counter = OpCounter()
        self._plant(counter)
        state = _RunState(config)
        # Fault-injection front end (repro.faults): None in the steady
        # state, so the hot loops pay one is-None check per round.
        from repro.faults import get_injector
        self._injector = get_injector()
        # The checker bound its injector at construction; refresh it so an
        # injector installed after planner construction still sees the
        # ``edge.validate`` site.
        self.checker._injector = self._injector

        # Observability front end: with tracing/metrics off this binds the
        # dormant globals and every obs.phase() is one attribute check.
        obs = PhaseRecorder()
        plan_started = obs.tracer.now()
        plan_span = obs.tracer.span(
            "plan",
            robot=robot.name,
            dof=robot.dof,
            checker=config.checker,
            strategy=config.neighbor_strategy,
            max_samples=config.max_samples,
            wave_width=config.wave_width,
            **self.span_attrs,
        )
        with plan_span:
            outcome = self._run(counter, obs, state)
        result = self._finish(outcome, counter, state)
        if obs.registry.enabled:
            self._record_run_metrics(obs, result, counter, obs.tracer.now() - plan_started)
        return result

    def _steer(self, origin: np.ndarray, target: np.ndarray, dist: float) -> np.ndarray:
        """Move from ``origin`` toward ``target`` by at most one step."""
        if dist <= self.step:
            return target.copy()
        return origin + (self.step / dist) * (target - origin)

    def _best_so_far(self, tree):
        """Anytime best-so-far path of a degraded run and its goal gap.

        Every tree edge was collision checked at insertion, so the path to
        ANY node is a valid collision-free prefix.  Returns the one
        minimizing cost-to-come plus the straight-line remainder to the
        goal (the classic anytime heuristic), with that remainder.
        """
        remainder = np.linalg.norm(tree.points_view() - self.task.goal[None, :], axis=1)
        best_node = int(np.argmin(tree.costs_view() + remainder))
        return tree.path_to(best_node), float(remainder[best_node])

    @staticmethod
    def _replay_motion(result, counter) -> bool:
        """Commit a speculatively validated edge from its stored result.

        Mirrors :meth:`~repro.core.collision.CollisionChecker.
        motion_in_collision`: one motion-query metric, then the whole-edge
        verdict with its captured counter events merged in.
        """
        bump("repro_cc_motion_checks_total",
             help="Motion (edge) collision queries issued")
        verdict, events = result
        counter.merge(events)
        return verdict

    @staticmethod
    def _record_run_metrics(obs, result, counter, elapsed_s: float) -> None:
        """Run-level metrics: plan count/latency and Fig-3 MAC categories."""
        registry = obs.registry
        registry.counter("repro_plans_total", "Completed planning runs").inc(
            outcome="success" if result.success else "failure"
        )
        registry.counter("repro_plan_rounds_total", "Sampling rounds executed").inc(
            result.iterations
        )
        registry.histogram(
            "repro_plan_seconds", "End-to-end planner wall time"
        ).observe(elapsed_s)
        for category, macs in counter.macs_by_category().items():
            registry.counter(
                "repro_macs_total", "MAC-equivalents by cost-model category"
            ).inc(macs, category=category)

    @staticmethod
    def _round_record(diff: OpCounter, accepted, missing_used=0, repaired=False,
                      wave_width: int = 1, repaired_in_wave: bool = False) -> RoundRecord:
        loads = {"ns": 0.0, "cc": 0.0, "maint": 0.0, "other": 0.0}
        for kind, macs in diff.macs.items():
            if kind in _NS_KINDS:
                loads["ns"] += macs
            elif kind in _CC_KINDS:
                loads["cc"] += macs
            elif kind in _MAINT_KINDS:
                loads["maint"] += macs
            else:
                loads["other"] += macs
        return RoundRecord(
            ns_macs=loads["ns"],
            cc_macs=loads["cc"],
            maint_macs=loads["maint"],
            other_macs=loads["other"],
            accepted=accepted,
            missing_used=missing_used,
            repaired=repaired,
            events=dict(diff.events),
            wave_width=wave_width,
            repaired_in_wave=repaired_in_wave,
        )


class _Speculation:
    """Stage-1 results of one RRT\\* wave, read by the in-order commit."""

    __slots__ = ("points", "n0", "d_sq", "base_key", "pre_dist",
                 "key", "new", "results")

    def __init__(self, points, n0, d_sq, width):
        self.points = points
        self.n0 = n0
        self.d_sq = d_sq
        self.base_key = [0] * width
        self.pre_dist = [0.0] * width
        self.key = [0] * width
        self.new: List[Optional[np.ndarray]] = [None] * width
        #: Per-sample whole-edge (verdict, events) for the commit replay.
        self.results: List[Optional[tuple]] = [None] * width


class RRTStarPlanner(_PlannerLoop):
    """RRT\\* planner over a robot model and planning task."""

    def __init__(self, robot: RobotModel, task: PlanningTask, config: PlannerConfig):
        super().__init__(robot, task, config)
        self.strategy = self._new_strategy()
        self.goal_tolerance = config.resolved_goal_tolerance(robot.step_size)

    # ------------------------------------------------------------------- plan

    def _plant(self, counter) -> None:
        self.tree = ExpTree(self.task.start)
        self.strategy.insert(self.tree.root, self.task.start, counter=counter)
        self._neighborhood_macs = 0.0

    def _finish(self, outcome, counter, state) -> PlanResult:
        self._cost_history = state.cost_history
        return self._result(
            self.tree, state.goal_nodes, state.first_solution, counter,
            state.rounds, len(state.rounds),
            degraded_reason=state.degraded_reason,
        )

    def _run(self, counter, obs, state) -> None:
        """The planner loop: ``W = wave_width`` samples per wave.

        Stage 1 (only when W > 1; speculative, batched): against a snapshot
        of the tree, the wave's nearest-neighbor lookups run as one
        distance-matrix einsum, each sample's speculative ``x_new`` is
        steered, and every speculative edge is validated whole — one ladder
        construction, one FK batch, one stacked kernel pass — through a
        single :meth:`~repro.core.collision.CollisionChecker.
        motion_results_batch` call (see :meth:`_speculate`).

        Stage 2 (commit, in sample order): each sample runs the round —
        nearest + missing-neighbors repair, steer, collision, extend — into
        its own sub-counter.  When the committed nearest matches the
        speculation, the edge's verdict and captured counter events are
        replayed from the batched stage; otherwise (an intra-wave conflict
        repaired the nearest, or W = 1) the edge is checked directly, like
        a speculation miss in the hardware pipeline.  Because all
        cost-model weights are integers, merging the sub-counters
        reproduces the W = 1 counter totals bit-for-bit.

        Nodes stay pending (blinded from the index search and compared by
        the repair step) for ``W`` rounds when W > 1, else for
        ``config.speculation_depth`` rounds.
        """
        config, task, dim = self.config, self.task, self.robot.dof
        tree = self.tree
        width_cfg = config.wave_width
        speculate = width_cfg > 1
        depth = width_cfg if speculate else config.speculation_depth
        pending = state.pending
        injector = self._injector
        start = 0
        while start < config.max_samples:
            if state.armed and state.budget_expired(counter):
                break
            if injector is not None:
                injector.fire("planner.round", detail=f"iteration {start}")
            width = min(width_cfg, config.max_samples - start)
            subs = [OpCounter() for _ in range(width)]
            xs = np.empty((width, dim), dtype=float)
            for j in range(width):
                with obs.phase("sample", subs[j]):
                    xs[j] = self.sampler.sample_biased(
                        task.goal, config.goal_bias, counter=subs[j]
                    )
            spec = None
            if speculate:
                spec = self._speculate(xs, width, start, depth, pending, obs)

            for j, sub in enumerate(subs):
                iteration = start + j
                x_rand = xs[j]
                (nearest_key, nearest_point, nearest_dist,
                 missing_used, repaired) = self._nearest_with_repair(
                    tree, x_rand, pending, sub, obs, spec, j,
                )

                accepted = False
                node_id: Optional[int] = None
                used_spec = False
                if nearest_dist > 1e-12:
                    with obs.phase("steer", sub):
                        sub.record("steer", dim=dim)
                        x_new = self._steer(nearest_point, x_rand, nearest_dist)
                    used_spec = (
                        spec is not None
                        and spec.results[j] is not None
                        and nearest_key == spec.key[j]
                        and np.array_equal(x_new, spec.new[j])
                    )
                    if injector is not None:
                        injector.fire("planner.collision")
                    with obs.phase("collision", sub):
                        if used_spec:
                            blocked = self._replay_motion(spec.results[j], sub)
                        else:
                            blocked = self.checker.motion_in_collision(
                                nearest_point, x_new, counter=sub
                            )
                    if not blocked:
                        with obs.phase("rewire", sub):
                            node_id = self._extend(
                                tree, x_new, nearest_key, nearest_point, sub
                            )
                        accepted = True
                        self._after_accept(tree, node_id, x_new, iteration, state)

                state.rounds.append(
                    self._round_record(
                        sub, accepted, missing_used, repaired,
                        wave_width=width,
                        repaired_in_wave=(spec is not None and not used_spec
                                          and spec.pre_dist[j] > 1e-12),
                    )
                )

                if accepted and depth > 0:
                    pending.append((iteration, node_id))
                while pending and pending[0][0] <= iteration - depth:
                    pending.popleft()

                counter.merge(sub)

                if config.stop_on_goal and state.first_solution is not None:
                    return
            start += width

    def _speculate(self, xs, width, start, depth, pending, obs) -> _Speculation:
        """Stage 1: speculate every sample of the wave against a snapshot.

        Each sample only sees the tree prefix the W = 1 planner at
        ``speculation_depth = W`` would see (pending rounds are blinded);
        its post-repair nearest is predicted, its edge steered, and every
        speculative edge validated in one batched call.  Intra-wave
        accepts are then folded in by :meth:`_simulate_commit`.
        """
        tree = self.tree
        linear = getattr(self.strategy, "linear_scan", False)
        n0 = len(tree)
        points = tree.points_view()
        pend_rounds = [r for r, _ in pending]
        # Entering round start+j the W = 1 loop has popped rounds
        # <= start+j-1-W, so the blinded suffix is rounds >= start+j-W;
        # node ids are insertion-ordered, hence the visible set is a
        # prefix of the snapshot.
        limits = [
            n0 - sum(1 for r in pend_rounds if r >= start + j - depth)
            for j in range(width)
        ]
        with obs.tracer.span("wave", width=width, nodes=n0):
            diffs = points[None, :, :] - xs[:, None, :]
            d_sq = np.einsum("wnd,wnd->wn", diffs, diffs)
            spec = _Speculation(points, n0, d_sq, width)
            seg_starts = []
            seg_ends = []
            seg_js = []
            pre_key = [0] * width
            for j in range(width):
                k = int(np.argmin(d_sq[j, : limits[j]]))
                spec.base_key[j] = k
                if linear:
                    # Matches BruteForceIndex: sqrt of the einsum row.
                    dist = float(np.sqrt(d_sq[j, k]))
                else:
                    # Matches SIMBRTree's per-point distance arithmetic.
                    dist = float(
                        np.sqrt(float(np.sum((points[k] - xs[j]) ** 2)))
                    )
                # Predict the POST-repair nearest among the snapshot:
                # replay the repair scan against the pending entries
                # that will still be in flight at this sample's commit
                # (bitwise the same arithmetic the commit-time repair
                # performs).  The matrix distance prunes entries that
                # provably cannot win (it agrees with the scalar norm
                # to a few ulp, dwarfed by the 1e-9 relative margin).
                cut = start + j - depth
                bound = dist * dist * (1.0 + 1e-9)
                for r, pkey in pending:
                    if r >= cut and d_sq[j, pkey] <= bound:
                        pdist = float(np.linalg.norm(points[pkey] - xs[j]))
                        if pdist < dist:
                            k, dist = pkey, pdist
                            bound = dist * dist * (1.0 + 1e-9)
                pre_key[j] = k
                spec.pre_dist[j] = dist
                if dist > 1e-12:
                    x_new = self._steer(points[k], xs[j], dist)
                    spec.new[j] = x_new
                    seg_starts.append(points[k])
                    seg_ends.append(x_new)
                    seg_js.append(j)
            batch1: dict = {}
            if seg_js:
                edge_results = self.checker.motion_results_batch(
                    np.stack(seg_starts), np.stack(seg_ends)
                )
                for j, res in zip(seg_js, edge_results):
                    batch1[j] = res
            self._simulate_commit(xs, spec, pre_key, batch1)
        return spec

    def _simulate_commit(self, xs, spec, pre_key, batch1):
        """Fold intra-wave accepts into the speculation (two sim passes).

        The pre-pass speculation only sees the tree snapshot, so a sample
        whose true nearest is a node accepted *earlier in the same wave*
        would miss at commit and fall back to a direct collision check.
        This walks the commit order ahead of time:

        * Pass A predicts each sample's acceptance from the batch-1
          verdicts; samples whose predicted nearest moves to an intra-wave
          accept get their edge re-steered and validated whole in one
          second :meth:`~repro.core.collision.CollisionChecker.
          motion_results_batch` call.
        * Pass B re-walks the chain with both verdict sets and fixes the
          final per-sample speculation (``spec.key``/``spec.new``/
          ``spec.results``), predicting intra-wave node ids from the
          insertion order.

        The simulation uses bitwise the same steering and distance
        arithmetic as the commit, so its predictions are exact unless a
        re-steered edge's own acceptance was mispredicted (third-order
        conflicts); any misprediction surfaces only as a commit-time
        speculation miss — the direct check — never as a wrong result.

        Both passes prefilter with squared-distance matrices to the
        candidate accept points (one stacked einsum per candidate set);
        the exact scalar norm runs only on entries inside the 1e-9
        relative margin, which dwarfs the few-ulp matrix/norm divergence.
        """
        width, n0, points = len(xs), spec.n0, spec.points
        pre_dist, spec_key = spec.pre_dist, spec.key
        spec_new, spec_results = spec.new, spec.results
        cand_idx = [j for j in range(width) if spec_new[j] is not None]
        if not cand_idx:
            for j in range(width):
                spec_key[j] = pre_key[j]
                spec_results[j] = batch1.get(j)
            return
        margin = 1.0 + 1e-9
        cmat = np.stack([spec_new[j] for j in cand_idx])
        d_a = cmat[None, :, :] - xs[:, None, :]
        sq_a = np.einsum("wmd,wmd->wm", d_a, d_a).tolist()
        col_of = {j: i for i, j in enumerate(cand_idx)}

        # ---- pass A: find edges that need a second collision batch
        accepts = []  # (candidate column, point)
        resteer = []
        for j in range(width):
            dist = pre_dist[j]
            bound = dist * dist * margin
            row = sq_a[j]
            pt = None
            for col, apt in accepts:
                if row[col] <= bound:
                    pdist = float(np.linalg.norm(apt - xs[j]))
                    if pdist < dist:
                        dist, pt = pdist, apt
                        bound = dist * dist * margin
            if pt is not None:
                # Moved intra-wave: re-steer; assume rejected this pass.
                if dist > 1e-12:
                    x2 = self._steer(pt, xs[j], dist)
                    resteer.append((j, pt, x2))
                continue
            res = batch1.get(j)
            if res is not None and not res[0]:
                accepts.append((col_of[j], spec_new[j]))
        batch2: dict = {}
        bcol_of: dict = {}
        sq_b = None
        if resteer:
            edge_results = self.checker.motion_results_batch(
                np.stack([pt for _, pt, _ in resteer]),
                np.stack([x2 for _, _, x2 in resteer]),
            )
            for i, ((j, _, x2), res) in enumerate(zip(resteer, edge_results)):
                batch2[j] = (x2, res)
                bcol_of[j] = i
            bmat = np.stack([x2 for _, _, x2 in resteer])
            d_b = bmat[None, :, :] - xs[:, None, :]
            sq_b = np.einsum("wmd,wmd->wm", d_b, d_b).tolist()

        # ---- pass B: exact chain replay with both verdict sets
        accepts = []  # (matrix flag, column, point); id = n0 + position
        for j in range(width):
            k, dist = pre_key[j], pre_dist[j]
            pt = points[k]
            bound = dist * dist * margin
            row_a = sq_a[j]
            row_b = sq_b[j] if sq_b is not None else None
            for idx, (in_b, col, apt) in enumerate(accepts):
                sq = row_b[col] if in_b else row_a[col]
                if sq <= bound:
                    pdist = float(np.linalg.norm(apt - xs[j]))
                    if pdist < dist:
                        k, dist, pt = n0 + idx, pdist, apt
                        bound = dist * dist * margin
            spec_key[j] = k
            if dist <= 1e-12:
                spec_new[j] = None
                spec_results[j] = None
                continue
            if k == pre_key[j]:
                x2 = spec_new[j]
                results = batch1.get(j)
                in_b, col = False, col_of.get(j)
            else:
                x2 = self._steer(pt, xs[j], dist)
                spec_new[j] = x2
                entry = batch2.get(j)
                results = None
                in_b, col = True, bcol_of.get(j)
                if entry is not None and np.array_equal(entry[0], x2):
                    results = entry[1]
            spec_results[j] = results
            if results is not None and not results[0]:
                accepts.append((in_b, col, spec_new[j]))

    def _after_accept(self, tree, node_id, x_new, iteration, state) -> None:
        """Goal bookkeeping for an accepted sample."""
        task = self.task
        if float(np.linalg.norm(x_new - task.goal)) <= self.goal_tolerance:
            state.goal_nodes.append(node_id)
            if state.first_solution is None:
                state.first_solution = iteration
        if state.goal_nodes:
            best = min(
                tree.cost(n) + float(np.linalg.norm(tree.point(n) - task.goal))
                for n in state.goal_nodes
            )
            if best < state.best_known - 1e-9:
                state.best_known = best
                state.cost_history.append((iteration, best))
            if isinstance(self.sampler, InformedSampler):
                self.sampler.update_best_cost(best)

    # -------------------------------------------------------------- internals

    def _nearest_with_repair(self, tree, x_rand, pending, counter, obs, spec, j):
        """Speculated nearest-neighbor search plus the repair step.

        Without speculation this is a plain exact search.  With speculation,
        the index search cannot see the pending (in-flight) node ids; the
        repair step then reads each pending node from the Missing Neighbors
        Buffer and keeps whichever candidate is truly nearest.

        Given its wave's stage-1 ``spec``, sample ``j`` reuses the
        distance-matrix row: a linear-scan index takes its search result
        from it (the committed visible set equals the speculative prefix,
        since intra-wave accepts are all still pending, so the row IS the
        exact scan), and the repair prunes with it.
        """
        d_sq_row = None if spec is None else spec.d_sq[j]
        if spec is not None and getattr(self.strategy, "linear_scan", False):
            with obs.phase("nearest", counter):
                self.strategy.count_nearest(counter)
            nearest_key = spec.base_key[j]
            nearest_point = spec.points[nearest_key].copy()
            nearest_dist = float(np.sqrt(d_sq_row[nearest_key]))
        else:
            exclude = {key for _, key in pending} if pending else None
            with obs.phase("nearest", counter):
                found = self.strategy.nearest(x_rand, counter=counter, exclude=exclude)
            assert found is not None, "tree root can never be excluded"
            nearest_key, nearest_point, nearest_dist = found
        missing_used = 0
        repaired = False
        if pending:
            with obs.phase("repair", counter, entries=len(pending)):
                (nearest_key, nearest_point, nearest_dist,
                 missing_used, repaired) = self._repair(
                    tree, x_rand, pending, counter,
                    nearest_key, nearest_point, nearest_dist,
                    d_sq_row=d_sq_row,
                    snapshot_len=0 if spec is None else spec.n0,
                )
        return nearest_key, nearest_point, nearest_dist, missing_used, repaired

    def _repair(self, tree, x_rand, pending, counter,
                nearest_key, nearest_point, nearest_dist,
                d_sq_row=None, snapshot_len=0):
        """Missing-neighbors repair: compare against every pending node.

        Every pending entry is charged its buffer read and distance (the
        hardware always performs them), but when a wave's stage 1
        supplied its precomputed squared-distance row the actual norm is
        skipped for snapshot entries that provably cannot beat the current
        nearest — the matrix agrees with the scalar norm to a few ulp,
        dwarfed by the 1e-9 relative margin, so the selected neighbor is
        bitwise unchanged.
        """
        dim = self.robot.dof
        missing_used = len(pending)
        repaired = False
        # One aggregated record per kind: integer cost weights make the
        # n-fold record bitwise equal to n single records.
        counter.record("buffer_read", dim=dim, n=missing_used)
        counter.record("dist", dim=dim, n=missing_used)
        bound = (
            nearest_dist * nearest_dist * (1.0 + 1e-9)
            if d_sq_row is not None else 0.0
        )
        for _, key in pending:
            if d_sq_row is not None and key < snapshot_len and d_sq_row[key] > bound:
                continue
            point = tree.point(key)
            dist = float(np.linalg.norm(point - x_rand))
            if dist < nearest_dist:
                nearest_key, nearest_point, nearest_dist = key, point, dist
                repaired = True
                if d_sq_row is not None:
                    bound = nearest_dist * nearest_dist * (1.0 + 1e-9)
        return nearest_key, nearest_point, nearest_dist, missing_used, repaired

    def _extend(self, tree, x_new, nearest_key, nearest_point, counter):
        """Choose-parent + insert + rewire for an accepted sample.

        With ``config.rewire`` disabled the sample is attached straight to
        ``x_nearest`` (plain RRT): no neighborhood query, no refinement.
        """
        config, dim = self.config, self.robot.dof
        if not config.rewire:
            edge = float(np.linalg.norm(x_new - nearest_point))
            node_id = tree.add(x_new, nearest_key, edge)
            self.strategy.insert(node_id, x_new, nearest_key=nearest_key, counter=counter)
            return node_id
        radius = config.neighbor_radius(len(tree), dim, self.step)
        before_neighborhood = counter.snapshot()
        neighborhood = self.strategy.neighborhood(
            x_new, radius, nearest_key=nearest_key, counter=counter
        )
        self._neighborhood_macs += counter.diff(before_neighborhood).total_macs()
        candidates = {key: (point, dist) for key, point, dist in neighborhood}
        nearest_edge = float(np.linalg.norm(x_new - nearest_point))
        candidates.setdefault(nearest_key, (nearest_point, nearest_edge))

        # Choose parent: lowest cost-to-come through a collision-free edge.
        # The edge from x_nearest was already verified by the extension check.
        parent_key, parent_edge = nearest_key, candidates[nearest_key][1]
        best_cost = tree.cost(nearest_key) + parent_edge
        ranked = sorted(
            candidates.items(), key=lambda kv: tree.cost(kv[0]) + kv[1][1]
        )
        for key, (point, dist) in ranked:
            counter.record("cost_update", dim=dim)
            cost = tree.cost(key) + dist
            if cost >= best_cost:
                break
            if not self.checker.motion_in_collision(point, x_new, counter=counter):
                parent_key, parent_edge, best_cost = key, dist, cost
                break

        node_id = tree.add(x_new, parent_key, parent_edge)
        self.strategy.insert(node_id, x_new, nearest_key=nearest_key, counter=counter)

        # Rewire: route neighbors through x_new when cheaper and collision free.
        new_cost = tree.cost(node_id)
        for key, (point, dist) in candidates.items():
            if key == parent_key:
                continue
            counter.record("cost_update", dim=dim)
            if new_cost + dist >= tree.cost(key) - 1e-12:
                continue
            if self._is_ancestor(tree, key, node_id):
                continue
            if not self.checker.motion_in_collision(x_new, point, counter=counter):
                tree.rewire(key, node_id, dist)
        return node_id

    @staticmethod
    def _is_ancestor(tree, candidate: int, node_id: int) -> bool:
        current = tree.parent(node_id)
        while current is not None:
            if current == candidate:
                return True
            current = tree.parent(current)
        return False

    def _result(self, tree, goal_nodes, first_solution, counter, rounds, iterations,
                *, degraded_reason: Optional[str] = None):
        task = self.task
        status = "complete" if degraded_reason is None else "degraded"
        if goal_nodes:
            # Pick the cheapest goal-region node whose final hop to the
            # exact goal is itself collision free (the hop can be up to one
            # goal_tolerance long, so it must be verified like any edge).
            # Falls back to ending the path at the in-tolerance node.
            best, best_cost, best_tail = None, float("inf"), 0.0
            fallback, fallback_cost = None, float("inf")
            for node in goal_nodes:
                tail = float(np.linalg.norm(tree.point(node) - task.goal))
                cost = tree.cost(node) + tail
                if cost < fallback_cost:
                    fallback, fallback_cost = node, cost
                if cost < best_cost and (
                    tail <= 1e-12
                    or not self.checker.motion_in_collision(
                        tree.point(node), task.goal, counter=counter
                    )
                ):
                    best, best_cost, best_tail = node, cost, tail
            if best is not None:
                path = tree.path_to(best)
                if best_tail > 1e-12:
                    path = path + [task.goal.copy()]
                path_cost = best_cost
                goal_node = best
                goal_distance = 0.0
            else:
                goal_node = fallback
                path = tree.path_to(fallback)
                path_cost = tree.cost(fallback)
                goal_distance = float(
                    np.linalg.norm(tree.point(fallback) - task.goal)
                )
            return PlanResult(
                success=True,
                path=path,
                path_cost=path_cost,
                num_nodes=len(tree),
                iterations=iterations,
                counter=counter,
                rounds=rounds,
                goal_node=goal_node,
                first_solution_iteration=first_solution,
                neighborhood_macs=self._neighborhood_macs,
                cost_history=list(getattr(self, "_cost_history", [])),
                status=status,
                degraded_reason=degraded_reason,
                best_goal_distance=goal_distance,
            )
        path: List[np.ndarray] = []
        goal_distance = None
        if degraded_reason is not None and len(tree) > 0:
            # The goal was not reached, only approached: path_cost stays inf.
            path, goal_distance = self._best_so_far(tree)
        return PlanResult(
            success=False,
            path=path,
            path_cost=float("inf"),
            num_nodes=len(tree),
            iterations=iterations,
            counter=counter,
            rounds=rounds,
            neighborhood_macs=self._neighborhood_macs,
            status=status,
            degraded_reason=degraded_reason,
            best_goal_distance=goal_distance,
        )


def plan(robot: RobotModel, task: PlanningTask, config: PlannerConfig) -> PlanResult:
    """Convenience wrapper: build a planner and run it once."""
    return RRTStarPlanner(robot, task, config).plan()
