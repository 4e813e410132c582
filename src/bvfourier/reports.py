"""The vocabulary of a verification campaign: its profiles, its suite
names and its per-check outcomes.

This module imports nothing numerical, so the CLI's parser reads its
``--suite`` and ``--profile`` choices here without loading the suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Profile", "PROFILES", "SUITE_NAMES", "VerificationReport", "format_report_line"]


@dataclass(frozen=True)
class Profile:
    """The grid sizes of one verification campaign; every cutoff, coefficient index and bound follows from them."""

    line_n: int = 2**14
    periodic_n: int = 2**12
    radial_n: int = 8193


PROFILES: dict[str, Profile] = {
    "default": Profile(),
    "fast": Profile(line_n=2**12, periodic_n=2**10, radial_n=1025),
    "strict": Profile(line_n=2**15),
}

SUITE_NAMES = ("hilbert", "lemma-dc", "hardy", "hardy-littlewood", "periodic", "radial")


@dataclass
class VerificationReport:
    """One measured quantity against one bound.

    ``passed`` is derived, never stored independently: a report passes
    exactly when measured <= bound.
    """

    name: str
    measured: float
    bound: float
    grid_n: int
    notes: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        self.measured = float(self.measured)
        self.bound = float(self.bound)
        self.passed = bool(self.measured <= self.bound)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def report_fields(report: VerificationReport) -> list[str]:
    """The name, status, measured and bound (to 6 significant digits) and grid_n of a
    report: its text line, and the first five fields of its CSV row."""
    return [report.name, report.status, f"{report.measured:.6g}", f"{report.bound:.6g}", str(report.grid_n)]


def format_report_line(report: VerificationReport) -> str:
    return " ".join(report_fields(report))
