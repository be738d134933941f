"""Outside-in span tracer for the vlaps benchmark.

The tracer replaces public callables of the ``vlaps`` package with timing
wrappers at the place where the program looks them up (a class attribute or a
module global), so nothing under ``src/`` needs to change.  Spans are kept in
memory in flat arrays (name, start, end, parent span, op id) and written as
JSON lines once the traced run is over.
"""

from __future__ import annotations

import dataclasses
import inspect
from array import array
from time import perf_counter

import vlaps.cli
import vlaps.harness
import vlaps.search
from vlaps.macrolib import MacroLibrary
from vlaps.prior import UniformLibraryPrior
from vlaps.rngutil import RngFactory
from vlaps.world import BlockNavEnv, ScriptedExpertPrior

# (metric name, owner, attribute): the owner is where the program looks the
# callable up, which for module-level functions is the importing module.
TARGETS = [
    ("world.step", BlockNavEnv, "step"),
    ("world.step_macro", vlaps.search, "step_macro"),
    ("world.expert_prior", ScriptedExpertPrior, "sample_macro"),
    ("macrolib.distances_to", MacroLibrary, "distances_to"),
    ("macrolib.build_library", vlaps.harness, "build_library"),
    ("macrolib.load", MacroLibrary, "load"),
    ("prior.beta_distribution", vlaps.search, "beta_distribution"),
    ("prior.sample_candidates", vlaps.search, "sample_candidates"),
    ("prior.psi_prior", vlaps.search, "psi_prior"),
    ("prior.uniform_prior", UniformLibraryPrior, "sample_macro"),
    ("search.search_once", vlaps.search, "search_once"),
    ("search.expand", vlaps.search, "expand"),
    ("search.rollout", vlaps.search, "rollout"),
    ("search.select_path", vlaps.search, "select_path"),
    ("search.backpropagate", vlaps.search, "backpropagate"),
    ("search.replay_plan", vlaps.search, "replay_plan"),
    ("search.run_episode", vlaps.harness, "run_episode"),
    ("rngutil.rng", RngFactory, "rng"),
    ("harness.run_and_report", vlaps.cli, "run_and_report"),
    ("harness.run_suite", vlaps.harness, "run_suite"),
    ("harness.write_records", vlaps.harness, "write_records"),
    ("harness.render_report", vlaps.harness, "render_report"),
    ("cli.main", vlaps.cli, "main"),
]
# goal predicates are closures built per task; they are wrapped on the way
# out of BlockNavEnv.tasks, which run_suite and task_by_id both go through
GOAL = "world.goal"
FUNCTIONS = [name for name, _, _ in TARGETS] + [GOAL]


class Tracer:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self):
        self.names = list(FUNCTIONS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._hooks: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def hook(self, name: str, after) -> None:
        """Call ``after(bound_arguments, result)`` when ``name`` returns;
        register hooks before ``install``."""
        self._hooks[name] = after

    def install(self) -> None:
        missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
                   for _, owner, attr in TARGETS if not hasattr(owner, attr)]
        if not hasattr(BlockNavEnv, "tasks"):
            missing.append("BlockNavEnv.tasks")
        if missing:
            raise RuntimeError(f"traced names no longer exist: {missing}")
        for name, owner, attr in TARGETS:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self.wrap(name, raw))
        tasks = BlockNavEnv.__dict__["tasks"]
        self._saved.append((BlockNavEnv, "tasks", tasks))

        def traced_tasks(env):
            return [dataclasses.replace(t, goal_predicate=self.wrap(GOAL, t.goal_predicate))
                    for t in tasks(env)]

        BlockNavEnv.tasks = traced_tasks

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def wrap(self, name: str, fn):
        nid = self._ids[name]
        after = self._hooks.get(name)
        signature = inspect.signature(fn) if after else None
        stack, tracer = self._stack, self
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(tracer.op)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- queries ------------------------------------------------------------

    def active(self, name: str) -> bool:
        """Whether a span of ``name`` is open (the caller is inside it)."""
        nid = self._ids[name]
        return any(self.span_name[sid] == nid for sid in self._stack)

    def durations(self, name: str) -> list[float]:
        nid = self._ids[name]
        return [self.span_end[i] - self.span_start[i]
                for i in range(len(self.span_name)) if self.span_name[i] == nid]

    def totals(self) -> tuple[dict[str, tuple[int, float, float]], float]:
        """Per function: calls, self seconds and inclusive seconds; and the
        summed duration of top-level spans.

        A span's self time is its duration minus the part its child spans
        cover; children of one span never overlap, as the program runs in
        one thread, so that part is the sum of their durations.
        """
        count = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        covered = [0.0] * count
        top_level = 0.0
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += duration[i]
            else:
                top_level += duration[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        for i in range(count):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += duration[i] - covered[i]
            inclusive[nid] += duration[i]
        table = {name: (calls[i], self_s[i], inclusive[i]) for i, name in enumerate(self.names)}
        return table, top_level

    def write_jsonl(self, path) -> None:
        base = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                fh.write(
                    '{"id":%d,"name":"%s","start_us":%.3f,"end_us":%.3f,"parent":%d,"op":%d}\n'
                    % (i, self.names[self.span_name[i]],
                       (self.span_start[i] - base) * 1e6, (self.span_end[i] - base) * 1e6,
                       self.span_parent[i], self.span_op[i]))
