"""Reproducible experiment driver.

Sweeps prior quality (expert noise level), runs paired search vs. prior-only
episodes on identical seeds, and writes machine-readable results: a canonical
``records.jsonl``, ``summary.csv`` / ``summary.json``, and two SVG bar charts.
All outputs are byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError
from .macrolib import MacroLibrary, Trajectory, build_library, segment_trajectories
from .rngutil import RngFactory, stable_hash
from .search import EpisodeResult, SearchConfig, run_episode
from .world import BlockNavEnv, ScriptedExpertPrior, TaskSpec, run_expert_episode

METHOD_VLAPS = "vlaps"
METHOD_PRIOR_ONLY = "prior_only"

CSV_COLUMNS = ["noise", "method", "success_rate", "mean_runtime_s",
               "mean_prior_queries", "n"]

DEFAULT_DEMO_SEEDS = list(range(5))


@dataclass
class SuiteConfig:
    """One benchmark sweep: tasks x noise levels x paired seeds x two methods."""

    environment: str = "blocknav"
    extent: float = 10.0
    object_count: int = 2
    task_ids: list = field(default_factory=list)  # empty = all environment tasks
    noise_levels: list = field(default_factory=lambda: [0.0, 0.2, 0.4, 0.6])
    seeds: list = field(default_factory=lambda: list(range(10)))
    search: SearchConfig = field(default_factory=SearchConfig)
    library_path: str = ""   # empty = build from expert demos
    library_size: int = 64
    library_seed: int = 7
    out_dir: str = "."

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigurationError("at least one seed (episode per cell) required")
        if any(not 0.0 <= x <= 1.0 for x in self.noise_levels):
            raise ConfigurationError("noise levels must lie in [0,1]")

    def to_json(self) -> dict:
        data = dataclasses.asdict(self)
        data["search"] = self.search.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SuiteConfig":
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

    def sort_key(self):
        return (self.noise_level, self.task_id, self.method, self.seed)

    def to_json(self) -> dict:
        return {
            "task_id": self.task_id,
            "noise_level": self.noise_level,
            "method": self.method,
            "seed": self.seed,
            "success": self.success,
            "wall_time": round(self.wall_time, 9),
            "iterations": self.iterations,
            "prior_queries": self.prior_queries,
            "decision_points": self.decision_points,
            "root_tie": self.root_tie,
        }


def build_env(cfg: SuiteConfig) -> BlockNavEnv:
    if cfg.environment != "blocknav":
        raise ConfigurationError(f"unknown environment {cfg.environment!r}")
    return BlockNavEnv(extent=cfg.extent, object_count=cfg.object_count)


def collect_expert_trajectories(
    env: BlockNavEnv,
    tasks: list[TaskSpec],
    seeds: list[int],
    noise_level: float = 0.0,
    max_steps: int = 100,
) -> list[Trajectory]:
    """Roll the scripted expert across tasks and seeds, logging every episode."""
    trajs = []
    for task in tasks:
        for seed in seeds:
            states, actions, success = run_expert_episode(
                env, task, seed, noise_level=noise_level, max_steps=max_steps
            )
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


def _episode_streams(cfg: SuiteConfig, task: TaskSpec, noise: float, seed: int) -> RngFactory:
    return RngFactory(cfg.search.seed, seed, stable_hash(task.task_id),
                      int(round(noise * 1000)))


def run_suite(cfg: SuiteConfig, library: MacroLibrary | None = None) -> list[RunRecord]:
    """Run every (noise, task, seed) cell with both methods on paired seeds."""
    env = build_env(cfg)
    all_tasks = env.tasks()
    if cfg.task_ids:
        tasks = [env.task_by_id(tid) for tid in cfg.task_ids]
    else:
        tasks = all_tasks
    if library is None:
        library = resolve_library(cfg, env, all_tasks)

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
                    result = run_episode(
                        env, model, task, prior, library, search_cfg,
                        streams=_episode_streams(cfg, task, noise, seed),
                        reset_seed=seed,
                    )
                    records.append(_to_record(task, noise, method, seed, result))
    records.sort(key=RunRecord.sort_key)
    return records


def _to_record(
    task: TaskSpec, noise: float, method: str, seed: int, result: EpisodeResult
) -> RunRecord:
    return RunRecord(
        task_id=task.task_id,
        noise_level=noise,
        method=method,
        seed=seed,
        success=result.success,
        wall_time=result.total_wall_time,
        iterations=result.total_search_iterations,
        prior_queries=result.total_prior_queries,
        decision_points=result.decision_points,
    )


def write_records(records: list[RunRecord], path) -> None:
    with open(path, "w") as fh:
        for rec in sorted(records, key=RunRecord.sort_key):
            fh.write(json.dumps(rec.to_json()) + "\n")


def load_records(path) -> list[RunRecord]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(RunRecord(**json.loads(line)))
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


def parse_summary_csv(path) -> list[dict]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ConfigurationError(f"unexpected CSV header in {path}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append({
            "noise": float(cells[0]),
            "method": cells[1],
            "success_rate": float(cells[2]),
            "mean_runtime_s": float(cells[3]) if cells[3] != "" else None,
            "mean_prior_queries": float(cells[4]),
            "n": int(cells[5]),
        })
    return rows


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


def output_root() -> Path:
    return Path(os.environ.get("VLAPS_OUTPUT_ROOT", "."))


def run_and_report(cfg: SuiteConfig) -> tuple[list[RunRecord], list[dict]]:
    """Full pipeline: run the suite, persist records, aggregate, render."""
    out_dir = output_root() / cfg.out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    records = run_suite(cfg)
    write_records(records, out_dir / "records.jsonl")
    summary = aggregate(records)
    render_report(summary, out_dir)
    return records, summary
