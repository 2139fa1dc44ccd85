"""Output checks that recompute every expected number from the closed forms.

Nothing here imports regimelab. Each check rebuilds what a CLI output must
contain from the formulas in PAPER.md, so a defect in the library cannot
vouch for itself:

    theta_lower     = (r' - rbar)^2 / 2
    theta_upper     = 2 sigma + (1 - 2 sigma / (1 - rbar)) theta_lower
    x_prime         = theta_upper + sigma (2 theta_lower - 1)
    theta_no_attack = theta_upper + 2 sigma theta_lower

the four-branch ex-post welfare, the clamped attack ramp and the
welfare-comparison verdict. A check raises CheckError on the first
mismatch, naming the row.
"""

from __future__ import annotations

import json
import math

# Numbers are printed with 9 significant digits, so a printed value may sit
# half a unit of the 9th digit away from the exact one.
_SIG_REL = 5e-9
# The recomputation may order operations differently from the library, so
# it can differ by a few ulps of the largest operand (theta, 1, 1/(2 sigma)).
_ULP_ABS = 1e-13

SWEEP_COLUMNS = ("sigma", "rbar", "rprime", "theta", "region", "attack", "welfare")
COMPARE_COLUMNS = SWEEP_COLUMNS + ("rprime_hi", "welfare_hi", "verdict")
SIMULATE_COLUMNS = (
    "sigma", "rbar", "mode", "r", "x_cutoff", "theta", "n_agents", "n_reps",
    "seed", "alpha_mean", "alpha_hw", "fall_freq", "welfare_mean",
)


class CheckError(Exception):
    """A CLI output disagrees with its independent recomputation."""


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise CheckError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except ValueError:
        raise CheckError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise CheckError(f"{where}: non-finite value {value!r}")
    return number


def _expect_close(value, expected: float, scale: float, where: str) -> None:
    got = _number(value, where)
    if abs(got - expected) > _SIG_REL * abs(expected) + _ULP_ABS * scale:
        raise CheckError(f"{where}: got {got!r}, closed form gives {expected!r}")


def _expect_in(value, allowed: set, where: str) -> None:
    if value not in allowed:
        raise CheckError(f"{where}: got {value!r}, closed form allows {sorted(allowed)}")


def _strict_json(text: str):
    def reject(constant: str):
        raise CheckError(f"JSON contains the non-standard constant {constant}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not valid JSON: {exc}") from None


def _csv_rows(text: str, columns: tuple[str, ...]) -> list[list[str]]:
    if not text.endswith("\n") or "\r" in text:
        raise CheckError("CSV must end with LF and use LF line endings")
    lines = text[:-1].split("\n")
    if lines[0] != ",".join(columns):
        raise CheckError(f"CSV header {lines[0]!r} is not {','.join(columns)!r}")
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise CheckError(f"row {i}: {len(row)} fields, expected {len(columns)}")
    return rows


# ---------------------------------------------------------------------------
# closed forms


class Equilibrium:
    """Signalling-equilibrium thresholds and curves, from the closed forms."""

    def __init__(self, sigma: float, rbar: float, rprime: float):
        self.sigma = sigma
        self.rbar = rbar
        self.theta_lower = (rprime - rbar) ** 2 / 2.0
        self.theta_upper = (
            2.0 * sigma + (1.0 - 2.0 * sigma / (1.0 - rbar)) * self.theta_lower
        )
        self.x_prime = self.theta_upper + sigma * (2.0 * self.theta_lower - 1.0)
        self.theta_no_attack = self.theta_upper + 2.0 * sigma * self.theta_lower
        # Magnitude of the largest operand in the curves, for the ulp slack.
        self.scale = 1.0 + 1.0 / (2.0 * sigma)

    def region(self, theta: float) -> str:
        if theta < self.theta_lower:
            return "abandon"
        if theta <= self.theta_upper:
            return "intervene"
        if theta < self.theta_no_attack:
            return "defend-under-attack"
        return "no-attack"

    def regions_near(self, theta: float) -> set[str]:
        """Regions within rounding of theta: both sides when theta sits on a kink."""
        eps = 1e-12 * max(1.0, abs(theta))
        return {self.region(theta - eps), self.region(theta), self.region(theta + eps)}

    def attack(self, theta: float) -> float:
        ramp = (self.x_prime - theta + self.sigma) / (2.0 * self.sigma)
        return min(1.0, max(0.0, ramp))

    def welfare(self, theta: float) -> float:
        if theta < self.theta_lower:
            return 0.0
        if theta < self.theta_upper:
            return theta - self.theta_lower
        if theta < self.theta_no_attack:
            inv = 1.0 / (2.0 * self.sigma)
            ratio = self.rbar / (1.0 - self.rbar)
            return (1.0 + inv) * theta - (inv - ratio) * self.theta_lower - 1.0
        return theta


def theta_grid(lo: float, step: float, count: int) -> list[float]:
    """The CLI's lo:hi:step grid: lo + k*step for k = 0 .. count-1."""
    return [lo + k * step for k in range(count)]


def _verdict(diff: float, tol: float) -> str:
    if diff > tol:
        return "higher-under-aggressive"
    if -diff > tol:
        return "lower-under-aggressive"
    return "equal"


def _check_curve_row(values, eq: Equilibrium, rprime: float, theta: float, where: str):
    """Check the shared sigma..welfare prefix of a sweep or compare row."""
    sigma, rbar, got_rprime, got_theta, region, attack, welfare = values
    scale = eq.scale * max(1.0, abs(theta))
    _expect_close(sigma, eq.sigma, 1.0, f"{where} sigma")
    _expect_close(rbar, eq.rbar, 1.0, f"{where} rbar")
    _expect_close(got_rprime, rprime, 1.0, f"{where} rprime")
    _expect_close(got_theta, theta, scale, f"{where} theta")
    _expect_in(region, eq.regions_near(theta), f"{where} region")
    _expect_close(attack, eq.attack(theta), scale, f"{where} attack")
    _expect_close(welfare, eq.welfare(theta), scale, f"{where} welfare")


# ---------------------------------------------------------------------------
# per-workload checks


def check_sweep_csv(
    text: str, sigma: float, rbar: float, rprimes: list[float], thetas: list[float]
) -> None:
    """welfare-sweep CSV: every row, r' outer and theta inner."""
    rows = _csv_rows(text, SWEEP_COLUMNS)
    if len(rows) != len(rprimes) * len(thetas):
        raise CheckError(f"{len(rows)} rows, expected {len(rprimes) * len(thetas)}")
    i = 0
    for rprime in rprimes:
        eq = Equilibrium(sigma, rbar, rprime)
        for theta in thetas:
            _check_curve_row(rows[i], eq, rprime, theta, f"row {i}")
            i += 1


def check_compare_json(
    text: str,
    sigma: float,
    rbar: float,
    r_low: float,
    r_high: float,
    thetas: list[float],
    tol: float = 1e-9,
) -> None:
    """compare JSON: strict parse, one object per theta, values and verdicts."""
    rows = _strict_json(text)
    if not isinstance(rows, list) or len(rows) != len(thetas):
        size = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise CheckError(f"expected a list of {len(thetas)} rows, got {size}")
    low = Equilibrium(sigma, rbar, r_low)
    high = Equilibrium(sigma, rbar, r_high)
    for i, (row, theta) in enumerate(zip(rows, thetas)):
        where = f"row {i}"
        if not isinstance(row, dict) or tuple(row) != COMPARE_COLUMNS:
            raise CheckError(f"{where}: keys are not {COMPARE_COLUMNS}")
        _check_curve_row([row[c] for c in SWEEP_COLUMNS], low, r_low, theta, where)
        scale = high.scale * max(1.0, abs(theta))
        _expect_close(row["rprime_hi"], r_high, 1.0, f"{where} rprime_hi")
        u_high = high.welfare(theta)
        _expect_close(row["welfare_hi"], u_high, scale, f"{where} welfare_hi")
        diff = u_high - low.welfare(theta)
        slack = _ULP_ABS * scale
        allowed = {_verdict(diff - slack, tol), _verdict(diff + slack, tol)}
        _expect_in(row["verdict"], allowed, f"{where} verdict")


def check_simulate_csv(
    text: str,
    sigma: float,
    rbar: float,
    r: float,
    thetas: list[float],
    n_agents: int,
    n_reps: int,
    seed: int,
) -> None:
    """simulate CSV (continuation mode): alpha_mean against the continuum ramp.

    The continuum attack mass is clamp((x_cutoff - theta + sigma) / (2 sigma))
    with x_cutoff = (1 + 2 sigma)(1 - r) - sigma. alpha_mean averages
    n_agents * n_reps Bernoulli draws, so it may stray from the ramp by a few
    binomial standard errors; six of them make a false alarm negligible.
    """
    rows = _csv_rows(text, SIMULATE_COLUMNS)
    if len(rows) != len(thetas):
        raise CheckError(f"{len(rows)} rows, expected {len(thetas)}")
    x_cutoff = (1.0 + 2.0 * sigma) * (1.0 - r) - sigma
    draws = n_agents * n_reps
    for i, (row, theta) in enumerate(zip(rows, thetas)):
        where = f"row {i}"
        fixed = dict(zip(SIMULATE_COLUMNS, row))
        _expect_close(fixed["sigma"], sigma, 1.0, f"{where} sigma")
        _expect_close(fixed["rbar"], rbar, 1.0, f"{where} rbar")
        _expect_in(fixed["mode"], {"continuation"}, f"{where} mode")
        _expect_close(fixed["r"], r, 1.0, f"{where} r")
        _expect_close(fixed["x_cutoff"], x_cutoff, 1.0 + sigma, f"{where} x_cutoff")
        _expect_close(fixed["theta"], theta, max(1.0, abs(theta)), f"{where} theta")
        for name, want in (("n_agents", n_agents), ("n_reps", n_reps), ("seed", seed)):
            _expect_in(fixed[name], {str(want)}, f"{where} {name}")
        p = min(1.0, max(0.0, (x_cutoff - theta + sigma) / (2.0 * sigma)))
        bound = 6.0 * math.sqrt(p * (1.0 - p) / draws) + _SIG_REL
        alpha = _number(fixed["alpha_mean"], f"{where} alpha_mean")
        if abs(alpha - p) > bound:
            raise CheckError(
                f"{where} alpha_mean: got {alpha!r}, continuum ramp gives {p!r} "
                f"(bound {bound:.3g} from {draws} draws)"
            )


def check_verify_json(text: str, n_checks: int = 15) -> None:
    """verify JSON report: strict parse, every check present and passed."""
    report = _strict_json(text)
    if not isinstance(report, dict):
        raise CheckError("verify report is not a JSON object")
    results = report.get("checks")
    complete = isinstance(results, list) and len(results) == n_checks
    if not complete or report.get("n_checks") != n_checks:
        raise CheckError(f"verify report does not hold {n_checks} checks")
    failed = [
        res.get("name") if isinstance(res, dict) else res
        for res in results
        if not (isinstance(res, dict) and res.get("passed") is True)
    ]
    if report.get("n_failed") != 0 or failed:
        raise CheckError(f"verify report has failed checks: {failed}")
