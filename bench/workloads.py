"""The benchmark's workloads: fixed job lists with their expected answers.

A job runs through the package's public functions and returns its raw
result; ``check`` turns that result into a list of failure messages and
``rows`` into the JSON form pinned in ``reference.json``.  Expected values
are the closed forms and brackets the package documents, written out here
so that a change to the package's own metadata cannot move the target.

Workloads (why each exists is in BENCHMARK.json as well):

scan-line   estimates on the real-line and finite catalog at n=4 and n=6,
            plus partial constants.  Evaluators cost a few microseconds, so
            time goes to catalog evaluator calls, candidate generation and
            the analysis fold; geometry does next to nothing.
scan-plane  the planar catalog at n=4.  Geometry (enclosing circle, line
            counting, Weiszfeld) dominates.  fermat[euclidean] runs at a
            budget of 20 candidates, which the 20 structured candidates at
            n=4 fill, followed by the coordinate refinement (about 400
            candidates, 1.4 s): Weiszfeld stalls at data points for up to
            10^4 iterations, 100 candidates took about 3 s and the default
            budget of 10^5 did not finish in 9 minutes.  With seeded batch
            candidates as well (budget 32), a sampled winner moved the
            refinement path and the job took 0.7 s to 4.4 s depending on the
            seed, so wall_s would follow the seed more than the code.
verify      in-process ``simplex_lab.cli.main`` runs of verify, multidistance
            and constants.  The same evaluators and candidate streams are
            used by the property checks, the exhaustive calibration of the
            constructions and the report assembly of the CLI.

Budgets are sized so that no single job takes more than about a quarter of
a pass on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

TOL_LINE = 1e-9
TOL_PLANE = 1e-6
FERMAT_EUCLIDEAN_BUDGET = 20


def jsonable(obj):
    """Tuples to lists, recursively: the form rows take in JSON."""
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    return obj


def _point(p):
    return tuple(p) if isinstance(p, list) else p


def value_expect(x: float, tol: float) -> tuple:
    return ("value", x, tol)


def bracket_expect(lo: float, hi: float, tol: float, strict: bool = False) -> tuple:
    return ("bracket", lo, hi, tol, strict)


def fermat_bracket(n: int, tol: float) -> tuple:
    return bracket_expect(1.0 / (n - 1), (4.0 * n - 4.0) / (3.0 * n * n - 4.0 * n), tol)


def check_bound(name: str, lower_bound: float, expect: tuple) -> list[str]:
    """Compare a certified lower bound with its closed form or bracket."""
    if expect[0] == "value":
        _, x, tol = expect
        if not abs(lower_bound - x) <= tol:
            return [f"{name}: lower_bound {lower_bound!r} is not {x!r} +- {tol}"]
        return []
    _, lo, hi, tol, strict = expect
    inside = lower_bound >= lo - tol and (lower_bound < hi if strict else lower_bound <= hi + tol)
    if not inside:
        return [f"{name}: lower_bound {lower_bound!r} outside [{lo!r}, {hi!r}{')' if strict else ']'}"]
    return []


def check_witness(name: str, dist, lower_bound: float, points, z, indices) -> list[str]:
    """The witness must reproduce the reported bound through ``analysis.ratio``."""
    from simplex_lab import analysis

    try:
        r = analysis.ratio(dist, points, z, indices)
    except (ValueError, ZeroDivisionError) as exc:
        return [f"{name}: witness ratio not computable: {exc}"]
    if r != lower_bound:
        return [f"{name}: witness ratio {r!r} differs from lower_bound {lower_bound!r}"]
    return []


def open_fraction(lower_bound: float, expect: tuple) -> float:
    """(upper - lower_bound) / (upper - lower) for a bracketed row."""
    _, lo, hi, _, _ = expect
    return (hi - lower_bound) / (hi - lo)


# ---------------------------------------------------------------------------
# estimate jobs (scan-line, scan-plane)


@dataclass
class EstimateJob:
    """One ``estimate_best_constant`` (k None) or ``estimate_partial_constant`` call."""

    name: str
    entry: object
    space: object
    budget: int
    expect: tuple
    k: int | None = None

    def run(self, seed: int):
        from simplex_lab import analysis

        if self.k is None:
            return analysis.estimate_best_constant(self.entry, self.space, budget=self.budget, seed=seed)
        return analysis.estimate_partial_constant(self.entry, self.space, self.k, budget=self.budget, seed=seed)

    def check(self, est) -> list[str]:
        failures = check_bound(self.name, est.lower_bound, self.expect)
        w = est.witness
        if w is None:
            return failures + [f"{self.name}: no witness"]
        if w.ratio != est.lower_bound:
            failures.append(f"{self.name}: witness.ratio {w.ratio!r} differs from lower_bound {est.lower_bound!r}")
        return failures + check_witness(self.name, self.entry, est.lower_bound, w.points, w.z, w.indices)

    def rows(self, est) -> list[dict]:
        w = est.witness
        return [
            jsonable(
                {
                    "name": self.name,
                    "lower_bound": est.lower_bound,
                    "witness": None if w is None else {"tuple": w.points, "z": w.z, "indices": w.indices},
                }
            )
        ]

    def open_fractions(self, est) -> list[float]:
        return [open_fraction(est.lower_bound, self.expect)] if self.expect[0] == "bracket" else []


def _scan_line_jobs(scale: float) -> list[EstimateJob]:
    from simplex_lab import catalog
    from simplex_lab.core import FiniteSpace, RealLine

    line = RealLine()
    finite4 = FiniteSpace(tuple("abcd"))
    finite5 = FiniteSpace(tuple("abcde"))
    budget = max(1, int(6000 * scale))
    jobs = []
    for n in (4, 6):
        std = value_expect(1.0 / (n - 1), TOL_LINE)
        for dist_id, params, expect in (
            ("diameter", {"d2": "abs"}, std),
            ("sum-based", {"d2": "abs"}, std),
            ("arithmetic-mean", {}, std),
            ("inner-interval", {}, value_expect(2.0 / n, TOL_LINE)),
            ("inner-interval-power", {"p": 2}, value_expect(4.0 / n, TOL_LINE)),
            ("fermat", {"d2": "abs"}, fermat_bracket(n, TOL_LINE)),
            ("chebyshev-diameter", {"q": 1}, std),
        ):
            entry = catalog.make(dist_id, n, **params)
            jobs.append(EstimateJob(f"{entry.name} n={n}", entry, line, budget, expect))
        # exhaustive _exact_scan path; cardinality at n=6 is 5^7 = 78,125 candidates
        jobs.append(EstimateJob(f"cardinality finite:5 n={n}", catalog.make("cardinality", n), finite5, budget, std))
        jobs.append(EstimateJob(f"drastic finite:4 n={n}", catalog.make("drastic", n), finite4, budget, std))
    for k in (2, 3):
        std_k = value_expect(1.0 / (k - 1), TOL_LINE)
        jobs.append(EstimateJob(f"inner-interval n=4 k={k}", catalog.make("inner-interval", 4), line, budget,
                                value_expect(2.0 / k, TOL_LINE), k))
        jobs.append(EstimateJob(f"sum-based[abs] n=4 k={k}", catalog.make("sum-based", 4, d2="abs"), line, budget,
                                std_k, k))
        jobs.append(EstimateJob(f"cardinality finite:5 n=4 k={k}", catalog.make("cardinality", 4), finite5, budget,
                                std_k, k))
    return jobs


def _scan_plane_jobs(scale: float) -> list[EstimateJob]:
    from simplex_lab import catalog
    from simplex_lab.core import Plane

    plane = Plane()
    n = 4
    std = value_expect(1.0 / (n - 1), TOL_PLANE)
    jobs = []
    for dist_id, params, budget, expect in (
        ("enclosing-radius", {}, 4500, std),
        ("enclosing-area", {}, 4500, value_expect(1.0 / (n - 1.5), TOL_PLANE)),
        ("line-count", {}, 9000, bracket_expect(1.0 / (n - 2 + 2.0 / n), 1.0 / (n - 2), TOL_PLANE, strict=True)),
        ("diameter", {"d2": "euclidean"}, 22000, std),
        ("chebyshev-diameter", {"q": 2}, 22000, std),
        ("fermat", {"d2": "chebyshev"}, 18000, fermat_bracket(n, TOL_PLANE)),
        # reduced budget: see the module docstring
        ("fermat", {"d2": "euclidean"}, FERMAT_EUCLIDEAN_BUDGET, fermat_bracket(n, TOL_PLANE)),
    ):
        entry = catalog.make(dist_id, n, **params)
        jobs.append(EstimateJob(f"{entry.name} n={n}", entry, plane, max(1, int(budget * scale)), expect))
    return jobs


# ---------------------------------------------------------------------------
# CLI jobs (verify)


@dataclass
class CliJob:
    """One in-process ``simplex_lab.cli.main`` run and what its report must say.

    ``statuses`` maps verdict properties to their expected status; a key
    ending in ``*`` matches every property with that prefix.  ``row_expect``
    maps row names to expectations; ``dist`` recomputes the witness ratios.
    """

    name: str
    argv: list
    exit_code: int
    statuses: dict = field(default_factory=dict)
    row_expect: dict = field(default_factory=dict)
    dist: object = None

    def run(self, seed: int):
        from simplex_lab import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv + ["--seed", str(seed)])
        return code, out.getvalue()

    def _expected_status(self, prop: str):
        for key, status in self.statuses.items():
            if key == prop or (key.endswith("*") and prop.startswith(key[:-1])):
                return status
        return None

    def check(self, result) -> list[str]:
        code, text = result
        if code != self.exit_code:
            return [f"{self.name}: exit code {code}, expected {self.exit_code}"]
        report = json.loads(text)
        failures = []
        seen = set()
        for v in report["verdicts"]:
            expected = self._expected_status(v["property"])
            seen.add(v["property"])
            if expected is None:
                failures.append(f"{self.name}: unexpected verdict {v['property']}")
            elif v["status"] != expected:
                failures.append(f"{self.name}: {v['property']} is {v['status']}, expected {expected}")
        for key in self.statuses:
            if not key.endswith("*") and key not in seen:
                failures.append(f"{self.name}: verdict {key} missing")
        rows = {r["name"]: r for r in report["rows"]}
        if set(rows) != set(self.row_expect):
            failures.append(f"{self.name}: rows {sorted(rows)}, expected {sorted(self.row_expect)}")
        for row_name, expect in self.row_expect.items():
            row = rows.get(row_name)
            if row is None:
                continue
            label = f"{self.name} {row_name}"
            failures += check_bound(label, row["observed"], expect)
            w = row["witness"]
            if w is None:
                failures.append(f"{label}: no witness")
                continue
            points = tuple(_point(p) for p in w["tuple"])
            failures += check_witness(label, self.dist, row["observed"], points, _point(w["z"]), w["indices"])
        return failures

    def rows(self, result) -> list[dict]:
        _, text = result
        report = json.loads(text)
        out = [
            {"name": f"{self.name} {r['name']}", "lower_bound": r["observed"], "witness": r["witness"]}
            for r in report["rows"]
        ]
        out += [
            {"name": f"{self.name} {v['property']}", "status": v["status"], "counterexample": v.get("counterexample")}
            for v in report["verdicts"]
        ]
        return out

    def open_fractions(self, result) -> list[float]:
        _, text = result
        rows = json.loads(text)["rows"]
        return [
            open_fraction(r["observed"], self.row_expect[r["name"]])
            for r in rows
            if self.row_expect.get(r["name"], ("value",))[0] == "bracket"
        ]


def _verify_jobs(scale: float) -> list[CliJob]:
    from simplex_lab import cli

    def budget(b: int) -> list[str]:
        return ["--budget", str(max(1, int(b * scale)))]

    axioms = {"identity(*": "pass", "symmetry(*": "pass", "simplex(*": "pass"}
    checks = "axioms,repetition,nonincreasing"
    jobs = []
    for dist_id, n, space, b, rep, noninc, strong in (
        ("cardinality", 5, "finite:5", 20000, "pass", "pass", True),
        ("arithmetic-mean", 4, "real", 32000, "fail", "fail", False),
        ("inner-interval", 4, "real", 32000, "pass", "fail", False),
        ("enclosing-radius", 4, "plane", 800, "pass", "pass", True),
    ):
        # the strong check needs a known strong constant, which only the
        # standard repetition-invariant entries have
        statuses = {**axioms, "repetition-invariance": rep, "nonincreasing-identification": noninc}
        if strong:
            statuses["strong-simplex(*"] = "pass"
        argv = ["verify", "--distance", dist_id, "--n", str(n), "--space", space,
                "--checks", checks + (",strong" if strong else "")] + budget(b)
        jobs.append(CliJob(f"verify {dist_id}", argv, 0 if rep == noninc == "pass" else 1, statuses))
    jobs.append(CliJob(
        "multidistance enclosing-radius",
        ["multidistance", "--family", "enclosing-radius", "--arities", "2..4"] + budget(3000),
        0, {"multidistance": "pass", "multidistance-to-ndistance(*": "pass"},
    ))
    # the mean is not nonincreasing, so the converse direction does not apply
    jobs.append(CliJob(
        "multidistance arithmetic-mean-doubled",
        ["multidistance", "--family", "arithmetic-mean-doubled", "--arities", "2..6"] + budget(100000),
        0, {"multidistance": "pass", "multidistance-to-ndistance(*": "not-applicable"},
    ))
    for spec, n, space, expect in (
        ("single-anchor:s=0.4", 5, "finite:5", value_expect(0.4, TOL_LINE)),
        ("two-anchor:s=0.3", 5, "finite:5", value_expect(0.3, TOL_LINE)),
        ("strong-extremal:k=3", 5, None, value_expect(0.25, TOL_LINE)),
        ("fermat:d2=abs", 4, "real", fermat_bracket(4, TOL_LINE)),
    ):
        dist_id, params = cli.parse_distance_spec(spec)
        dist, _ = cli.build_distance(dist_id, params, n, cli.parse_space(space) if space else None)
        argv = ["constants", "--distance", spec, "--n", str(n)] + (["--space", space] if space else []) + budget(5000)
        jobs.append(CliJob(f"constants {spec}", argv, 0, {}, {f"K*_{n}": expect}, dist))
    return jobs


WORKLOADS = {
    "scan-line": _scan_line_jobs,
    "scan-plane": _scan_plane_jobs,
    "verify": _verify_jobs,
}


def build(workload: str, scale: float = 1.0) -> list:
    """The workload's job list; imports the package on first use."""
    return WORKLOADS[workload](scale)
