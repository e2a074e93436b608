"""Spans around the program's public entry points, recorded from the benchmark.

``Tracer`` patches each traced function where the program looks it up (the
module global or class attribute its callers use), records a span per call,
and restores every binding on exit.  Spans are kept in memory in per-thread
columns: name, start, end, parent span on the same thread, a parent span on
another thread (for agent threads started by a federated round), and a
context id naming the agent-round (``round * 1000 + agent``) or evaluation
episode.  Self time of a span is its duration minus that of its same-thread
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import os
import threading
from array import array
from time import perf_counter

import numpy as np

MAIN_CTX = 999  # context slot of the aggregator's own spans within a round


class _Columns:
    def __init__(self, thread_idx: int):
        self.thread_idx = thread_idx
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.xparent = array("i")  # index into thread 0's spans, or -1
        self.ctx = array("q")
        self.stack: list[int] = []
        self.current_ctx = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_Columns] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.cross_parent = -1  # open round span on thread 0 that agent threads hang off
        self.current_round = 0
        self.counters: dict[str, float] = {}
        self._episode = 0

    # ------------------------------------------------------------ recording

    def _cols(self) -> _Columns:
        cols = getattr(self._local, "cols", None)
        if cols is None:
            with self._lock:
                cols = _Columns(len(self._threads))
                self._threads.append(cols)
            self._local.cols = cols
        return cols

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, ctx_of=None):
        """``fn`` recording one span per call; ``ctx_of(args)`` sets a new context."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            c = self._cols()
            idx = len(c.name)
            root = not c.stack
            c.name.append(nid)
            c.parent.append(c.stack[-1] if c.stack else -1)
            c.xparent.append(self.cross_parent if root and c.thread_idx != 0 else -1)
            prev_ctx = c.current_ctx
            if ctx_of is not None:
                c.current_ctx = ctx_of(args)
            c.ctx.append(c.current_ctx)
            c.end.append(0.0)
            c.stack.append(idx)
            t0 = perf_counter()
            c.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                c.end[idx] = perf_counter()
                c.stack.pop()
                c.current_ctx = prev_ctx

        return traced

    def patch(self, owner, attr: str, name: str, ctx_of=None, make=None) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig) if make else self.wrap(name, orig, ctx_of))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------- install

    def install(self) -> "Tracer":
        """Patch every traced entry point where the program's callers find it."""
        import feddrive.ddpg as ddpg
        import feddrive.evaluation as ev
        import feddrive.federation as fed
        from feddrive.sim.world import TrafficWorld

        self.patch(TrafficWorld, "step", "sim.step")
        self.patch(TrafficWorld, "reset", "sim.reset")

        def forward_by_batch(orig):
            b1 = self.wrap("nn.forward_b1", orig)
            batch = self.wrap("nn.forward_batch", orig)
            return lambda params, x: (b1 if len(x) == 1 else batch)(params, x)

        self.patch(ddpg, "forward", "", make=forward_by_batch)
        self.patch(ddpg, "backward", "nn.backward")
        self.patch(ddpg, "adam_step", "nn.adam_step")

        self.patch(ddpg, "critic_update", "ddpg.critic_update")
        self.patch(ddpg, "actor_update", "ddpg.actor_update")
        self.patch(ddpg, "soft_update", "ddpg.soft_update")
        self.patch(fed, "soft_update", "ddpg.soft_update")
        self.patch(ddpg, "select_action", "ddpg.select_action")
        self.patch(ddpg.ReplayBuffer, "sample", "ddpg.replay_sample")
        self.patch(ddpg.ReplayBuffer, "store", "ddpg.replay_store")

        def round_ctx(args):
            return args[3] * 1000 + MAIN_CTX

        def run_round(orig):
            traced = self.wrap("federation.run_round", orig, ctx_of=round_ctx)

            def call(*args, **kwargs):
                # agent threads started inside this round hang off its span
                self.cross_parent = len(self._cols().name)
                self.current_round = args[3]
                try:
                    return traced(*args, **kwargs)
                finally:
                    self.cross_parent = -1

            return call

        self.patch(fed, "run_round", "", make=run_round)
        self.patch(
            fed,
            "train_episode",
            "ddpg.train_episode",
            ctx_of=lambda args: self.current_round * 1000 + args[0].agent_id,
        )

        def aggregate(orig):
            traced = self.wrap("federation.aggregate", orig)

            def call(updates):
                self._add("federation.update_bytes", sum(u.actor_weights.nbytes + u.critic_weights.nbytes for u in updates))
                self._add("federation.aggregations", 1)
                return traced(updates)

            return call

        self.patch(fed, "aggregate", "", make=aggregate)
        self.patch(fed, "broadcast", "federation.broadcast")
        self.patch(fed, "save_round_checkpoint", "federation.save_round_checkpoint")

        def save_container(orig):
            traced = self.wrap("container.save", orig)

            def call(path, arrays, meta):
                traced(path, arrays, meta)
                self._add("container.bytes", os.path.getsize(path))
                self._add("container.saves", 1)

            return call

        self.patch(fed, "save_container", "", make=save_container)

        def episode_ctx(args):
            self._episode += 1
            return self._episode

        self.patch(ev, "rollout", "evaluation.rollout", ctx_of=episode_ctx)
        self.patch(ev, "policy_action", "evaluation.policy_action")
        return self

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    # ------------------------------------------------------------ analysis

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as columns; ``parent`` and ``xparent`` index into these columns."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "xparent", "ctx", "thread")}
        offsets = []
        total = 0
        for c in self._threads:
            offsets.append(total)
            total += len(c.name)
        for c, off in zip(self._threads, offsets):
            n = len(c.name)
            parent = np.array(c.parent, dtype=np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + off, -1))
            xparent = np.array(c.xparent, dtype=np.int64)  # thread 0 starts at offset 0
            cols["xparent"].append(np.where(xparent >= 0, xparent, -1))
            cols["name"].append(np.array(c.name, dtype=np.int64))
            cols["start"].append(np.array(c.start, dtype=np.float64))
            cols["end"].append(np.array(c.end, dtype=np.float64))
            cols["ctx"].append(np.array(c.ctx, dtype=np.int64))
            cols["thread"].append(np.full(n, c.thread_idx, dtype=np.int64))
        out = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
        dur = out["end"] - out["start"]
        has_parent = out["parent"] >= 0
        child_time = np.bincount(out["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        out["self"] = dur - child_time
        return out

    def save(self, path, spans: dict[str, np.ndarray]) -> None:
        np.savez(path, names=np.array(self.names), **spans)


# ----------------------------------------------------------- per-layer metrics

# (name, unit, better).  Timings carry .p50, .p99 and .n; a timing whose span
# never runs on a workload reads 0 with n = 0.
_TIMINGS = [
    ("sim.step_us", "sim.step"),
    ("sim.reset_us", "sim.reset"),
    ("nn.forward_b1_us", "nn.forward_b1"),
    ("nn.forward_batch_us", "nn.forward_batch"),
    ("nn.backward_us", "nn.backward"),
    ("nn.adam_step_us", "nn.adam_step"),
    ("ddpg.critic_update_us", "ddpg.critic_update"),
    ("ddpg.actor_update_us", "ddpg.actor_update"),
    ("ddpg.soft_update_us", "ddpg.soft_update"),
    ("ddpg.replay_sample_us", "ddpg.replay_sample"),
    ("ddpg.replay_store_us", "ddpg.replay_store"),
    ("ddpg.select_action_us", "ddpg.select_action"),
    ("federation.aggregate_ms", "federation.aggregate"),
    ("federation.broadcast_ms", "federation.broadcast"),
    ("container.save_ms", "container.save"),
    ("evaluation.rollout_us", "evaluation.rollout"),
    ("evaluation.policy_action_us", "evaluation.policy_action"),
]
_ROUND_TIMINGS = [
    "federation.agent_round_s",
    "federation.local_phase_s",
    "federation.straggler_wait_s",
    "federation.round_stall_ms",
]
LAYERS = ("sim", "nn", "ddpg", "federation", "container", "evaluation")
_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def _unit(metric: str) -> str:
    return metric.rsplit("_", 1)[1]


def catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run emits, as (name, unit, better)."""
    out = []
    for metric in [m for m, _ in _TIMINGS] + _ROUND_TIMINGS:
        out += [(f"{metric}.p50", _unit(metric), "lower"), (f"{metric}.p99", _unit(metric), "lower"),
                (f"{metric}.n", "count", "higher")]
    out += [
        ("sim.steps", "count", "higher"),
        ("sim.busy_frac", "frac", "lower"),
        ("nn.calls.forward", "count", "higher"),
        ("nn.calls.backward", "count", "higher"),
        ("nn.calls.adam", "count", "higher"),
        ("nn.flops_per_update", "flop", "lower"),
        ("ddpg.updates", "count", "higher"),
        ("federation.update_bytes", "B", "lower"),
        ("container.bytes_written", "B", "lower"),
        ("evaluation.arrivals", "count", "higher"),
        ("evaluation.collisions", "count", "lower"),
        ("evaluation.timeouts", "count", "lower"),
    ]
    out += [(f"{layer}.self_frac", "frac", "lower") for layer in LAYERS]
    out += [
        ("trace.untraced_frac", "frac", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.spans", "count", "higher"),
        ("trace.wall_s", "s", "lower"),
    ]
    return out


def _stats(values: np.ndarray) -> tuple[float, float, int]:
    if len(values) == 0:
        return 0.0, 0.0, 0
    return float(np.percentile(values, 50)), float(np.percentile(values, 99)), int(len(values))


def layer_metrics(tracer: Tracer, sp: dict[str, np.ndarray], flops_per_update: int,
                  outcomes: dict[str, int], overhead_frac: float) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Per-layer metrics of one traced phase, keyed as in ``catalogue()``, and
    (span name, share of the traced thread time) pairs, largest first."""
    name, start, end = sp["name"], sp["start"], sp["end"]
    parent, xparent, ctx, self_t = sp["parent"], sp["xparent"], sp["ctx"], sp["self"].copy()
    dur = end - start
    ids = {n: i for i, n in enumerate(tracer.names)}

    def is_(span: str) -> np.ndarray:
        return name == ids.get(span, -1)

    m: dict[str, float] = {}

    def put(metric: str, values_s: np.ndarray) -> None:
        p50, p99, n = _stats(values_s * _SCALE[_unit(metric)])
        m[f"{metric}.p50"], m[f"{metric}.p99"], m[f"{metric}.n"] = p50, p99, n

    for metric, span in _TIMINGS:
        put(metric, dur[is_(span)])

    # Federated rounds: the local phase runs from the round's start to its
    # aggregate call; time the aggregator thread spends in it outside its own
    # child spans is waiting for agent threads, not work, and is left out of
    # the layer shares below.
    agent_round, local_phase, straggler, stall, wait = [], [], [], [], 0.0
    episode = is_("ddpg.train_episode")
    for r in np.flatnonzero(is_("federation.run_round")):
        kids = np.flatnonzero(parent == r)
        aggs = kids[name[kids] == ids.get("federation.aggregate", -1)]
        casts = kids[name[kids] == ids.get("federation.broadcast", -1)]
        local_end = start[aggs[0]] if len(aggs) else end[r]
        local = local_end - start[r]
        r_wait = local - dur[kids[start[kids] < local_end]].sum()
        self_t[r] -= r_wait
        wait += r_wait
        local_phase.append(local)
        stall.append((end[casts[-1]] if len(casts) else end[r]) - local_end)
        eps = np.flatnonzero(episode & ((parent == r) | (xparent == r)))
        per_agent = [end[eps[ctx[eps] == a]].max() - start[eps[ctx[eps] == a]].min() for a in np.unique(ctx[eps])]
        agent_round += per_agent
        if per_agent:
            straggler.append(local - min(per_agent))
    put("federation.agent_round_s", np.array(agent_round))
    put("federation.local_phase_s", np.array(local_phase))
    put("federation.straggler_wait_s", np.array(straggler))
    put("federation.round_stall_ms", np.array(stall))

    span_layer = np.array([n.split(".", 1)[0] for n in tracer.names] + [""])[name]
    thread_time = dur[parent < 0].sum() - wait
    walls = dur[is_("bench.job")].sum()
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = float(self_t[span_layer == layer].sum() / thread_time) if thread_time > 0 else 0.0
    m["trace.untraced_frac"] = float(self_t[span_layer == "bench"].sum() / thread_time) if thread_time > 0 else 0.0
    m["sim.steps"] = int(is_("sim.step").sum())
    m["sim.busy_frac"] = float(self_t[span_layer == "sim"].sum() / walls) if walls > 0 else 0.0
    m["nn.calls.forward"] = int(is_("nn.forward_b1").sum() + is_("nn.forward_batch").sum())
    m["nn.calls.backward"] = int(is_("nn.backward").sum())
    m["nn.calls.adam"] = int(is_("nn.adam_step").sum())
    m["nn.flops_per_update"] = flops_per_update
    m["ddpg.updates"] = int(is_("ddpg.critic_update").sum())
    c = tracer.counters
    aggs, saves = c.get("federation.aggregations", 0), c.get("container.saves", 0)
    m["federation.update_bytes"] = c.get("federation.update_bytes", 0) / aggs if aggs else 0
    m["container.bytes_written"] = c.get("container.bytes", 0) / saves if saves else 0
    m["evaluation.arrivals"] = outcomes.get("arrivals", 0)
    m["evaluation.collisions"] = outcomes.get("collisions", 0)
    m["evaluation.timeouts"] = outcomes.get("timeouts", 0)
    m["trace.overhead_frac"] = overhead_frac
    m["trace.spans"] = int(len(name))
    m["trace.wall_s"] = float(walls)
    shares = [(n, float(self_t[name == i].sum() / thread_time)) for i, n in enumerate(tracer.names)] if thread_time > 0 else []
    return m, sorted(shares, key=lambda kv: -kv[1])
