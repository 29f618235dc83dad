"""Characteristics summary (Table 4 of the paper).

Derives the qualitative Low/Medium/High grades of Table 4 from
*measured* results rather than hard-coding the paper's verdicts: speed
grades come from the Fig 5 measurements (tercile ranking, fastest =
High) and accuracy/adaptability grades from the Fig 6/Fig 8 relative
errors against the 1% threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.registry import PAPER_SKETCHES
from repro.experiments.accuracy import AccuracyResult
from repro.experiments.reporting import format_table
from repro.experiments.speed import SpeedResult

#: Structural classification from Sec 3 (not a measurement).
SKETCHING_APPROACH = {
    "kll": "Sampling",
    "req": "Sampling",
    "moments": "Summary",
    "ddsketch": "Summary",
    "uddsketch": "Summary",
}

#: Error threshold the paper parameterises every sketch against.
ACCURACY_THRESHOLD = 0.01

#: Relative-error level treated as a clear accuracy failure when grading
#: tail behaviour (KLL on Pareto sits far above this).
FAILURE_THRESHOLD = 0.05


def grade_speed(result: SpeedResult) -> dict[str, str]:
    """Tercile grades: fastest third High, slowest third Low."""
    ranked = result.ranking()
    n = len(ranked)
    grades = {}
    for position, name in enumerate(ranked):
        if position < (n + 2) // 3:
            grades[name] = "High"
        elif position < 2 * (n + 2) // 3:
            grades[name] = "Medium"
        else:
            grades[name] = "Low"
    return grades


def grade_accuracy(
    results: dict[str, AccuracyResult], group: str
) -> dict[str, str]:
    """Tail / non-tail accuracy verdicts across data sets.

    A data set "passes" when the sketch's error in the group stays
    under :data:`FAILURE_THRESHOLD`; tail grading (``group="upper"``)
    also includes the separately-reported 0.99 quantile, since the
    paper's tail notion covers the extreme upper end.  Verdicts follow
    Table 4's vocabulary: ``All``; ``Non-Skewed`` when only the skewed
    Pareto set fails; ``Synthetic`` when only the real-world sets fail;
    otherwise the passing subset is listed.
    """
    verdicts: dict[str, str] = {}
    sketches = set()
    for result in results.values():
        sketches.update(result.grouped)

    def metric(result: AccuracyResult, sketch: str) -> float:
        value = result.grouped[sketch].get(group, 1.0)
        if group == "upper":
            value = max(value, result.grouped[sketch].get("p99", 0.0))
        return value

    for sketch in sketches:
        passing = {
            dataset
            for dataset, result in results.items()
            if metric(result, sketch) <= FAILURE_THRESHOLD
        }
        failing = set(results) - passing
        if not failing:
            verdicts[sketch] = "All"
        elif not passing:
            verdicts[sketch] = "None"
        elif failing <= {"pareto"}:
            verdicts[sketch] = "Non-Skewed"
        elif failing <= {"nyt", "power"}:
            verdicts[sketch] = "Synthetic"
        else:
            verdicts[sketch] = "/".join(sorted(passing))
    return verdicts


def grade_adaptability(result: AccuracyResult) -> dict[str, str]:
    """High / Inconsistent / Low from the Fig 8 distribution-shift run.

    ``High`` = every quantile within threshold; ``Inconsistent`` = only
    the 0.5 quantile (the regime boundary) fails; ``Low`` otherwise.
    """
    grades = {}
    for sketch, per_q in result.per_quantile.items():
        failing = {
            q for q, ci in per_q.items() if ci.mean > FAILURE_THRESHOLD
        }
        if not failing:
            grades[sketch] = "High"
        elif failing == {0.5}:
            grades[sketch] = "Inconsistent"
        else:
            grades[sketch] = "Low"
    return grades


@dataclass
class SummaryTable:
    """The derived Table 4."""

    approach: dict[str, str]
    tail_accuracy: dict[str, str]
    nontail_accuracy: dict[str, str]
    insertion: dict[str, str]
    query: dict[str, str]
    merge: dict[str, str]
    adaptability: dict[str, str]

    def to_table(self, sketches: tuple[str, ...] = PAPER_SKETCHES) -> str:
        """Render the derived Table 4 as a text table."""
        characteristics = [
            ("Sketching approach", self.approach),
            ("High Tail Accuracy", self.tail_accuracy),
            ("High Non-Tail Accuracy", self.nontail_accuracy),
            ("Insertion Speed", self.insertion),
            ("Query Speed", self.query),
            ("Merge Speed", self.merge),
            ("Adaptability", self.adaptability),
        ]
        rows = [
            [label] + [grades.get(s, "-") for s in sketches]
            for label, grades in characteristics
        ]
        return format_table(
            ["Characteristic"] + list(sketches),
            rows,
            title="Characteristics summary (Table 4, derived from "
            "measurements)",
        )


def build_summary(
    accuracy: dict[str, AccuracyResult],
    insertion: SpeedResult,
    query: SpeedResult,
    merge: SpeedResult,
    adaptability: AccuracyResult,
) -> SummaryTable:
    """Assemble Table 4 from the other experiments' outputs."""
    return SummaryTable(
        approach=dict(SKETCHING_APPROACH),
        tail_accuracy=grade_accuracy(accuracy, "upper"),
        nontail_accuracy=grade_accuracy(accuracy, "mid"),
        insertion=grade_speed(insertion),
        query=grade_speed(query),
        merge=grade_speed(merge),
        adaptability=grade_adaptability(adaptability),
    )
