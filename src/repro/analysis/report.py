"""One-call consolidated experiment report.

``full_report`` runs every selected figure spec on one engine and renders
a single text document — the programmatic counterpart of
``pytest benchmarks/ --benchmark-only`` for users who want the
reproduction results from a script or notebook.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.calibration import run_calibration
from repro.analysis.experiments import (
    figure2_from_resultset,
    figure5_from_resultset,
    figure6_from_resultset,
    figure7_from_resultset,
    figure8_from_resultset,
    run_leakage_table,
)
from repro.api.engine import Engine
from repro.api.figures import (
    figure2_spec,
    figure5_spec,
    figure6_spec,
    figure7_spec,
    figure8a_spec,
    figure8b_spec,
)


@dataclass
class FullReport:
    """All experiment results plus a rendered document."""

    sections: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        """The full document."""
        parts = []
        for title, body in self.sections.items():
            bar = "=" * 72
            parts.append(f"{bar}\n{title}\n{bar}\n{body}")
        return "\n\n".join(parts)

    def save(self, path: str) -> None:
        """Write the rendered report to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.render())
            handle.write("\n")


def full_report(
    include: tuple[str, ...] = (
        "calibration", "leakage", "fig2", "fig5", "fig6", "fig7", "fig8a", "fig8b",
    ),
    **sim_params,
) -> FullReport:
    """Run the selected experiments and collect their rendered tables.

    ``include`` selects sections by id; the default regenerates every
    table and figure.  ``sim_params`` (``n_instructions``, ``seeds``, ...)
    pass through to every figure spec.  All sections share one serial
    engine, and the process-wide pass memo amortizes the functional cache
    passes across sections exactly as the benchmark harness does.
    """
    engine = Engine()

    def figure(spec_builder, convert):
        return lambda: convert(engine.run(spec_builder(**sim_params))).render()

    runners = {
        "calibration": ("Tables 1-2: derived constants",
                        lambda: run_calibration().render()),
        "leakage": ("Leakage accounting", lambda: run_leakage_table().render()),
        "fig2": ("Figure 2: input sensitivity",
                 figure(figure2_spec, figure2_from_resultset)),
        "fig5": ("Figure 5: static rate sweep",
                 figure(figure5_spec, figure5_from_resultset)),
        "fig6": ("Figure 6: main result",
                 figure(figure6_spec, figure6_from_resultset)),
        "fig7": ("Figure 7: IPC stability",
                 figure(figure7_spec, figure7_from_resultset)),
        "fig8a": ("Figure 8a: varying |R|",
                  figure(figure8a_spec, lambda r: figure8_from_resultset(r, label="a"))),
        "fig8b": ("Figure 8b: varying epochs",
                  figure(figure8b_spec, lambda r: figure8_from_resultset(r, label="b"))),
    }
    report = FullReport()
    for key in include:
        if key not in runners:
            raise ValueError(f"unknown section {key!r}; options: {sorted(runners)}")
        title, runner = runners[key]
        report.sections[title] = runner()
    return report
