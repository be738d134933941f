"""Reproducible experiment driver.

Sweeps prior quality (expert noise level), runs paired search vs. prior-only
episodes on identical seeds, and writes machine-readable results: a canonical
``records.jsonl``, ``summary.csv`` / ``summary.json``, and two SVG bar charts.
All outputs are byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigurationError, check_fields
from .macrolib import MacroLibrary, Trajectory, build_library, segment_trajectories
from .rngutil import RngFactory, stable_hash
from .search import SearchConfig, run_episode
from .world import BlockNavEnv, ScriptedExpertPrior, TaskSpec, run_expert_episode

METHOD_VLAPS = "vlaps"
METHOD_PRIOR_ONLY = "prior_only"

CSV_COLUMNS = ["noise", "method", "success_rate", "mean_runtime_s",
               "mean_prior_queries", "n"]

DEFAULT_DEMO_SEEDS = list(range(5))


@dataclass
class SuiteConfig:
    """One benchmark sweep: tasks x noise levels x paired seeds x two methods."""

    extent: float = 10.0
    object_count: int = 2
    task_ids: list[str] = field(default_factory=list)  # empty = all BlockNav tasks
    noise_levels: list[float] = field(default_factory=lambda: [0.0, 0.2, 0.4, 0.6])
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    search: SearchConfig = field(default_factory=SearchConfig)
    library_path: str = ""   # empty = build from expert demos
    library_size: int = 64
    library_seed: int = 7
    out_dir: str = "."

    def __post_init__(self):
        check_fields(self)
        for name in ("task_ids", "noise_levels", "seeds"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigurationError(f"SuiteConfig: {name} repeats an entry, which "
                                         f"would count its episodes twice: {values!r}")
            if not values and name != "task_ids":  # empty task_ids means all tasks
                raise ConfigurationError(f"SuiteConfig: {name} needs at least one entry")
        if any(not 0 <= seed < 2**32 for seed in self.seeds):
            # RngFactory keeps 32 bits of each seed, so 2**32 would rerun seed 0
            raise ConfigurationError(f"SuiteConfig: seeds must lie in [0, 2**32), "
                                     f"got {self.seeds!r}")
        if any(not 0.0 <= x <= 1.0 for x in self.noise_levels):
            raise ConfigurationError("noise levels must lie in [0,1]")
        if not isinstance(self.search, SearchConfig) or self.search.n_mc < 1:
            # at N_mc 0 the vlaps arm would be a second prior-only arm, labelled vlaps
            raise ConfigurationError("SuiteConfig: search must be a SearchConfig with N_mc "
                                     f"at least 1, got {self.search!r}")

    def to_json(self) -> dict:
        data = dataclasses.asdict(self)
        data["search"] = self.search.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict) or not isinstance(data.get("search", {}), dict):
            raise ConfigurationError("a suite config and its search value must be JSON objects")
        data = dict(data)
        if "search" in data:
            data["search"] = SearchConfig.from_json(data["search"])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(f"bad suite config: {exc}") from exc


@dataclass
class RunRecord:
    task_id: str
    noise_level: float
    method: str
    seed: int
    success: bool
    wall_time: float
    iterations: int
    prior_queries: int
    decision_points: int = 0
    # never set; kept so records.jsonl stays byte-identical and old records load
    root_tie: bool = False

    def __post_init__(self):
        check_fields(self)

    def sort_key(self):
        return (self.noise_level, self.task_id, self.method, self.seed)

    def to_json(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["wall_time"] = round(self.wall_time, 9)
        return data


def collect_expert_trajectories(
    env: BlockNavEnv,
    tasks: list[TaskSpec],
    seeds: list[int],
) -> list[Trajectory]:
    """Roll the zero-noise expert across tasks and seeds, logging every episode."""
    trajs = []
    for task in tasks:
        for seed in seeds:
            states, actions, success = run_expert_episode(env, task, seed)
            if len(actions):
                trajs.append(Trajectory(states, actions, success, task.task_id))
    return trajs


def default_library(
    env: BlockNavEnv,
    tasks: list[TaskSpec],
    horizon: int,
    size: int,
    seed: int,
) -> MacroLibrary:
    """Build the prototype library from zero-noise expert demonstrations."""
    trajs = collect_expert_trajectories(env, tasks, DEFAULT_DEMO_SEEDS)
    macros = segment_trajectories(trajs, horizon)
    return build_library(macros, size, seed)


def resolve_library(cfg: SuiteConfig, env: BlockNavEnv, tasks: list[TaskSpec]) -> MacroLibrary:
    if cfg.library_path:
        path = Path(cfg.library_path)
        if not path.exists():
            raise ConfigurationError(
                f"macro library {path} not found; build one with "
                f"`vlaps build-library --input <trajs.jsonl> --size "
                f"{cfg.library_size} --seed {cfg.library_seed} --out {path}`"
            )
        return MacroLibrary.load(path)
    return default_library(
        env, tasks, cfg.search.horizon, cfg.library_size, cfg.library_seed
    )


def run_suite(cfg: SuiteConfig) -> list[RunRecord]:
    """Run every (noise, task, seed) cell with both methods on paired seeds,
    searching the library that ``resolve_library`` gives for ``cfg``."""
    env = BlockNavEnv(extent=cfg.extent, object_count=cfg.object_count)
    all_tasks = env.tasks()
    tasks = [env.task_by_id(tid) for tid in cfg.task_ids] or all_tasks
    library = resolve_library(cfg, env, all_tasks)
    if (library.horizon, library.action_dim) != (cfg.search.horizon, env.action_dim):
        raise ConfigurationError(
            f"the library's macros have shape ({library.horizon}, {library.action_dim}), "
            f"but the search needs (H, n) = ({cfg.search.horizon}, {env.action_dim})")
    if cfg.search.k > library.m:
        raise ConfigurationError(f"search.k = {cfg.search.k} candidates per expansion, but "
                                 f"the library holds only {library.m} macros")

    model = BlockNavEnv.from_json(env.to_json())  # planning clone, same dynamics
    prior_cfg = dataclasses.replace(cfg.search, n_mc=0)
    records = []
    for noise in sorted(cfg.noise_levels):
        for task in tasks:
            for seed in cfg.seeds:
                prior = ScriptedExpertPrior(model, cfg.search.horizon, noise)
                for method, search_cfg in (
                    (METHOD_PRIOR_ONLY, prior_cfg),
                    (METHOD_VLAPS, cfg.search),
                ):
                    streams = RngFactory(cfg.search.seed, seed, stable_hash(task.task_id),
                                         int(round(noise * 1000)))
                    result = run_episode(env, model, task, prior, library, search_cfg,
                                         streams=streams, reset_seed=seed)
                    records.append(RunRecord(
                        task_id=task.task_id, noise_level=noise, method=method, seed=seed,
                        success=result.success, wall_time=result.total_wall_time,
                        iterations=result.total_search_iterations,
                        prior_queries=result.total_prior_queries,
                        decision_points=result.decision_points))
    records.sort(key=RunRecord.sort_key)
    return records


def write_records(records: list[RunRecord], path) -> None:
    with open(path, "w") as fh:
        for rec in sorted(records, key=RunRecord.sort_key):
            fh.write(json.dumps(rec.to_json()) + "\n")


def load_records(path) -> list[RunRecord]:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(RunRecord(**json.loads(line)))
                except (TypeError, ValueError, ConfigurationError) as exc:
                    raise ConfigurationError(f"{path}:{lineno}: bad record ({exc})") from exc
    return records


def aggregate(records: list[RunRecord]) -> list[dict]:
    """Per (noise, method) summary; runtimes averaged over successes only."""
    cells: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        cells.setdefault((rec.noise_level, rec.method), []).append(rec)
    rows = []
    for (noise, method) in sorted(cells):
        group = cells[(noise, method)]
        successes = [r for r in group if r.success]
        rows.append({
            "noise": noise,
            "method": method,
            "success_rate": len(successes) / len(group),
            "mean_runtime_s": (
                round(sum(r.wall_time for r in successes) / len(successes), 9)
                if successes else None
            ),
            "mean_prior_queries": (
                sum(r.prior_queries for r in group) / len(group)
            ),
            "n": len(group),
        })
    return rows


def render_report(summary: list[dict], out_dir) -> list[Path]:
    """Write summary.csv, summary.json, and the two bar charts."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "summary.csv"
        with open(csv_path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in summary:
                fh.write(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) + "\n")
        json_path = out / "summary.json"
        json_path.write_text(json.dumps(summary, indent=2))
        rate_path = out / "success_rate.svg"
        rate_path.write_text(_bar_chart_svg(
            summary, "success_rate", "Task success rate", upper=1.0))
        runtime_path = out / "runtime.svg"
        runtime_path.write_text(_bar_chart_svg(
            summary, "mean_runtime_s", "Mean successful-episode runtime (s)"))
    except OSError as exc:
        raise OSError(f"cannot write report to {out}: {exc}") from exc
    return [csv_path, json_path, rate_path, runtime_path]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


_METHOD_COLORS = {METHOD_PRIOR_ONLY: "#888888", METHOD_VLAPS: "#2266cc"}


def _bar_chart_svg(summary: list[dict], key: str, title: str, upper=None) -> str:
    """Minimal grouped bar chart: one group per noise level, one bar per method."""
    width, height, margin = 640, 360, 50
    noises = sorted({row["noise"] for row in summary})
    methods = sorted({row["method"] for row in summary})
    values = {(row["noise"], row["method"]): row.get(key) for row in summary}
    peak = max([v for v in values.values() if v is not None], default=0.0)
    top = upper if upper is not None else (peak if peak > 0 else 1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    group_w = plot_w / max(len(noises), 1)
    bar_w = group_w / (len(methods) + 1)
    for gi, noise in enumerate(noises):
        gx = margin + gi * group_w
        parts.append(
            f'<text x="{gx + group_w / 2:.1f}" y="{height - margin + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'noise={noise:g}</text>'
        )
        for mi, method in enumerate(methods):
            value = values.get((noise, method))
            if value is None:
                label, bar_h = "N/A", 0.0
            else:
                label, bar_h = f"{value:.3g}", plot_h * (value / top if top else 0)
            x = gx + bar_w * (mi + 0.5)
            y = height - margin - bar_h
            color = _METHOD_COLORS.get(method, "#44aa66")
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                f'height="{bar_h:.1f}" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{label}</text>'
            )
    # legend
    for mi, method in enumerate(methods):
        color = _METHOD_COLORS.get(method, "#44aa66")
        y = 30 + 14 * mi
        parts.append(f'<rect x="{width - 150}" y="{y - 9}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{width - 134}" y="{y}" font-family="sans-serif" '
                     f'font-size="11">{method}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_and_report(cfg: SuiteConfig) -> tuple[list[RunRecord], list[dict]]:
    """Full pipeline: run the suite, persist records, aggregate, render."""
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    records = run_suite(cfg)
    write_records(records, out_dir / "records.jsonl")
    summary = aggregate(records)
    render_report(summary, out_dir)
    return records, summary
