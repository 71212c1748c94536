"""Soft KPIs: effort, cost, and business factors (paper §3.3, §5.5).

Quality metrics alone do not decide which matching solution a business
should buy: configuration effort, deployment type, and lifecycle cost
matter. Frost models:

- **Effort** as (HR-amount hours, expertise 0–100). Expertise maps to a pay
  level, so the two combine into an estimated monetary cost.
- **Lifecycle expenditures** (LCCA): general costs + integration effort +
  domain-specific and technique-specific configuration effort.
- **Categorical soft KPIs**: deployment types, interfaces, techniques.
- **Experiment soft KPIs**: setup effort and runtime per experiment.

Aggregation into use-case-specific KPIs is user-defined (the paper
deliberately does not fix a strategy); :func:`aggregate` provides the
framework. :func:`decision_matrix` renders soft KPIs side by side with
quality metrics — the holistic §3.3 view. :func:`effort_metric_diagram`
produces the Köpcke-style effort/quality curve data of §5.5 / Figure 6.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pandas as pd


@dataclass(frozen=True)
class Effort:
    """A human-effort measurement: time spent and the worker's skill level."""

    hr_amount: float  # hours
    expertise: float  # 0 (untrained) .. 100 (highly skilled)

    def __post_init__(self) -> None:
        if self.hr_amount < 0:
            raise ValueError("hr_amount must be >= 0")
        if not 0 <= self.expertise <= 100:
            raise ValueError("expertise must be in [0, 100]")

    def cost(
        self, base_rate: float = 30.0, top_rate: float = 150.0
    ) -> float:
        """Monetary estimate: hours × hourly rate interpolated by expertise.

        Expertise is typically related to pay level (§3.3); the linear
        interpolation between an untrained and a highly-skilled rate is the
        rough estimation the paper describes.
        """
        rate = base_rate + (top_rate - base_rate) * self.expertise / 100.0
        return self.hr_amount * rate


@dataclass(frozen=True)
class SolutionKPIs:
    """Lifecycle + categorical soft KPIs of one matching solution."""

    name: str
    general_costs: float = 0.0  # licences etc. over the lifecycle
    integration_effort: Effort = Effort(0, 0)
    domain_config_effort: Effort = Effort(0, 0)  # e.g. labeling training data
    technique_config_effort: Effort = Effort(0, 0)  # e.g. algorithm selection
    deployment_types: tuple[str, ...] = ()  # on-premise / cloud
    interfaces: tuple[str, ...] = ()  # GUI / API / CLI
    techniques: tuple[str, ...] = ()  # rule-based / supervised-ml / ...

    def total_cost(self, base_rate: float = 30.0, top_rate: float = 150.0) -> float:
        """General costs plus all effort converted to money (§3.3 aggregation example)."""
        return self.general_costs + sum(
            e.cost(base_rate, top_rate)
            for e in (
                self.integration_effort,
                self.domain_config_effort,
                self.technique_config_effort,
            )
        )


def decision_matrix(
    solutions: list[SolutionKPIs],
    quality: dict[str, dict[str, float]] | None = None,
    base_rate: float = 30.0,
    top_rate: float = 150.0,
) -> pd.DataFrame:
    """All soft KPIs (and optional quality metrics) side by side.

    ``quality`` maps solution name -> metric dict (e.g. from
    :func:`repro.core.metrics.all_metrics`); the holistic view the paper
    requires of the decision matrix.
    """
    rows = []
    for s in solutions:
        row: dict[str, object] = {
            "solution": s.name,
            "general_costs": s.general_costs,
            "integration_hours": s.integration_effort.hr_amount,
            "domain_config_hours": s.domain_config_effort.hr_amount,
            "technique_config_hours": s.technique_config_effort.hr_amount,
            "estimated_total_cost": s.total_cost(base_rate, top_rate),
            "deployment_types": ",".join(s.deployment_types),
            "interfaces": ",".join(s.interfaces),
            "techniques": ",".join(s.techniques),
        }
        if quality and s.name in quality:
            row.update(quality[s.name])
        rows.append(row)
    return pd.DataFrame(rows)


def aggregate(
    solutions: list[SolutionKPIs],
    strategy: Callable[[SolutionKPIs], float],
    name: str = "score",
) -> pd.DataFrame:
    """Use-case-specific KPI aggregation framework (§3.3).

    Frost does not pre-define aggregation strategies; users supply one as a
    function of the solution's KPIs. Returns (solution, score) sorted
    ascending (lower = better for cost-like scores).
    """
    return pd.DataFrame(
        [{"solution": s.name, name: strategy(s)} for s in solutions]
    ).sort_values(name, ignore_index=True)


@dataclass
class EffortLog:
    """Tracked (cumulative hours, best metric so far) points for one solution.

    The raw material of Figure 6: quality against configuration effort.
    """

    solution: str
    points: list[tuple[float, float]] = field(default_factory=list)  # (hours, metric)

    def record(self, hours: float, metric_value: float) -> None:
        if self.points and hours < self.points[-1][0]:
            raise ValueError("effort log must be chronological")
        self.points.append((hours, metric_value))


def effort_metric_diagram(logs: list[EffortLog]) -> pd.DataFrame:
    """Effort/metric curve data (§3.3, §5.5): running maximum per solution.

    One row per tracked point with the best metric achieved up to that
    effort — the monotone curve of Figure 6, from which users read off
    answers like "how much effort for 80% f1?".
    """
    rows = []
    for log in logs:
        best = 0.0
        for hours, value in log.points:
            best = max(best, value)
            rows.append({"solution": log.solution, "hours": hours, "best_metric": best})
    return pd.DataFrame(rows)


def effort_to_reach(diagram: pd.DataFrame, solution: str, target: float) -> float | None:
    """Hours the solution needed to first reach ``target`` (None if never).

    Answers the FEVER-style question "how much effort is needed to reach
    80% precision?" (§2.3, §3.3).
    """
    sub = diagram[(diagram["solution"] == solution) & (diagram["best_metric"] >= target)]
    return float(sub["hours"].min()) if len(sub) else None
