"""Command-line front end: verify, constants, table1, multidistance.

Reports are deterministic for a fixed config and seed: JSON output is
byte-identical across runs except for the ``generated_at`` timestamp.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable, NamedTuple

from . import analysis, catalog, constructions, core, properties
from .core import FiniteSpace, Plane, RealLine, Space

SCHEMA = "simplex-lab/1"
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

DEFAULT_BUDGET = 100_000
DEFAULT_SEED = 42

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# config parsing


def parse_value(text: str):
    """int, float, fraction 'p/q', or bare string, in that order.

    Raises ValueError on a fraction with a zero denominator or one too
    large for a float.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den)
    except ValueError:
        return text
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    try:
        return num / den
    except OverflowError:
        raise ValueError(f"fraction {text!r} is out of float range") from None


def parse_distance_spec(spec: str) -> tuple[str, dict]:
    """'id' or 'id:key=val,key=val' -> (id, params)."""
    dist_id, _, tail = spec.partition(":")
    params: dict = {}
    if tail:
        for item in tail.split(","):
            key, eq, val = item.partition("=")
            if not eq or not key:
                raise ValueError(f"bad distance parameter {item!r} (expected key=val)")
            params[key.strip()] = parse_value(val.strip())
    if not dist_id:
        raise ValueError(f"empty distance id in {spec!r}")
    return dist_id, params


def parse_space(spec: str) -> Space:
    name, _, tail = spec.partition(":")
    if name == "finite":
        if not tail:
            return FiniteSpace(tuple(_LETTERS[:3]))
        if tail.isdigit():
            size = int(tail)
            if not 2 <= size <= len(_LETTERS):
                raise ValueError(f"finite space size must be in 2..{len(_LETTERS)}, got {size}")
            return FiniteSpace(tuple(_LETTERS[:size]))
        return FiniteSpace(tuple(x.strip() for x in tail.split(",")))
    if name in ("real", "real-line", "line"):
        cls = RealLine
    elif name == "plane":
        cls = Plane
    else:
        raise ValueError(f"unknown space spec {spec!r}")
    if not tail:
        return cls()
    low, _, high = tail.partition(",")
    return cls(float(low), float(high))


def positive_int(text: str) -> int:
    """argparse type for --budget: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_int_list(text: str, low: int, high: int, what: str = "k") -> list[int]:
    """'3' | '2,3' | '2..5' -> validated list of ints in [low, high]."""
    if ".." in text:
        start, _, stop = text.partition("..")
        values = list(range(int(start), int(stop) + 1))
    else:
        values = [int(x) for x in text.split(",")]
    for v in values:
        if not low <= v <= high:
            raise ValueError(f"{what}={v} out of range [{low}, {high}]")
    if not values:
        raise ValueError(f"empty {what} list")
    return values


def default_space_for(space_kind: str) -> Space:
    if space_kind in ("finite", "any"):
        return FiniteSpace(tuple(_LETTERS[:3]))
    if space_kind == "real-line":
        return RealLine()
    return Plane()


def build_distance(dist_id: str, params: dict, n: int, space: Space | None) -> tuple[catalog.CatalogEntry, Space]:
    """Resolve a distance spec to (entry, space actually used)."""
    params = dict(params)
    if dist_id == "single-anchor":
        sp = space if space is not None else FiniteSpace(tuple(_LETTERS[:3]))
        if "s" not in params:
            raise ValueError("single-anchor needs s=<target constant>")
        s = float(params.pop("s"))
        if sp.kind != "finite":
            raise ValueError("single-anchor needs a finite space")
        base_id = str(params.pop("base", "drastic"))
        e = str(params.pop("e", sp.labels[0]))
        _reject_leftovers(dist_id, params)
        base = catalog.make(base_id, n)
        _check_space_compatible(base.distance, sp)
        return constructions.single_anchor_distance(base, e, s, sp), sp
    if dist_id == "two-anchor":
        sp = space if space is not None else FiniteSpace(tuple(_LETTERS[:4]))
        if "s" not in params:
            raise ValueError("two-anchor needs s=<target constant>")
        s = float(params.pop("s"))
        if sp.kind != "finite":
            raise ValueError("two-anchor needs a finite space")
        a = str(params.pop("a", sp.labels[0]))
        b = str(params.pop("b", sp.labels[1]))
        _reject_leftovers(dist_id, params)
        return constructions.two_anchor_distance(a, b, s, n, sp), sp
    if dist_id == "strong-extremal":
        if space is not None:
            raise ValueError("strong-extremal lives on its own label space; drop --space")
        if "k" not in params:
            raise ValueError("strong-extremal needs k=<block count>")
        k = params.pop("k")
        if not isinstance(k, (int, float)) or not math.isfinite(k) or k != int(k):
            raise ValueError(f"strong-extremal needs an integer k, got {k!r}")
        k = int(k)
        _reject_leftovers(dist_id, params)
        entry = constructions.strong_extremal_distance(n, k)
        return entry, entry.space  # lives on its own label space
    try:
        entry = catalog.make(dist_id, n, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {dist_id!r}: {exc}") from exc
    sp = space if space is not None else default_space_for(entry.distance.space_kind)
    _check_space_compatible(entry.distance, sp)
    return entry, sp


def _reject_leftovers(dist_id: str, params: dict) -> None:
    if params:
        raise ValueError(f"unknown parameters for {dist_id!r}: {', '.join(sorted(params))}")


def _check_space_compatible(d: core.NDistance, space: Space) -> None:
    if d.space_kind != "any" and d.space_kind != space.kind:
        raise ValueError(f"{d.name} lives on a {d.space_kind} space, got {space.kind}")


def resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("SIMPLEX_LAB_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def default_tolerance(space: Space) -> float:
    return 1e-6 if space.kind == "plane" else 1e-9


# ---------------------------------------------------------------------------
# report assembly


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, Fraction):
        return float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # 'inf' / 'nan' as strings: strict-JSON safe
    return obj


def space_json(space: Space) -> dict:
    if space.kind == "finite":
        return {"kind": "finite", "labels": list(space.labels)}
    return {"kind": space.kind, "low": space.low, "high": space.high}


def witness_json(w) -> dict | None:
    if w is None:
        return None
    return _json_safe({"tuple": w.points, "z": w.z, "ratio": w.ratio, "indices": w.indices})


def verdict_json(v) -> dict:
    out = {"property": v.property, "status": v.status}
    if v.counterexample is not None:
        out["counterexample"] = _json_safe(v.counterexample)
    if v.worst is not None:
        out["worst"] = _json_safe(v.worst)
    if v.details is not None:
        out["details"] = _json_safe(v.details)
    return out


def constant_row(name: str, estimate, tolerance: float, entry: catalog.CatalogEntry | None = None) -> dict:
    """One report row: ``estimate`` against its analytic value or ``entry``'s bracket.

    The bracket's upper end is exclusive for line-count, inclusive (with
    ``tolerance``) for every other entry.
    """
    observed = estimate.lower_bound
    expected = estimate.analytic
    row = {
        "name": name,
        "expected": expected,
        "observed": observed,
        "delta": None if expected is None else observed - expected,
        "method": estimate.method,
        "tolerance": tolerance,
        "witness": witness_json(estimate.witness),
    }
    bounds = entry.constant_bounds if entry is not None else None
    if bounds is not None:
        low, high = bounds
        row["bounds"] = [low, high]
        ok = low is None or observed >= low - tolerance
        if high is not None:
            ok = ok and (observed < high if entry.name == "line-count" else observed <= high + tolerance)
        row["status"] = "pass" if ok else "fail"
    elif expected is None:
        row["status"] = "info"
    else:
        row["status"] = "pass" if abs(observed - expected) <= tolerance else "fail"
    return row


def make_report(command: str, config: dict, rows: list, verdicts: list) -> dict:
    failed = any(r.get("status") == "fail" for r in rows) or any(
        v.get("status") == core.FAIL for v in verdicts
    )
    return {
        "schema": SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": _json_safe(config),
        "rows": rows,
        "verdicts": verdicts,
        "status": "fail" if failed else "pass",
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _flat_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


_ROW_COLUMNS = (
    "name", "expected", "observed", "delta", "status", "method",
    "tolerance", "bound_low", "bound_high", "witness_tuple", "witness_z", "witness_ratio",
)
_VERDICT_COLUMNS = ("property", "status", "counterexample")


def _flat_row(row: dict) -> dict:
    """A report row with its bounds and witness spread over the CSV columns."""
    low, high = row.get("bounds") or (None, None)
    wit = row.get("witness") or {}
    return {**row, "bound_low": low, "bound_high": high,
            "witness_tuple": wit.get("tuple"), "witness_z": wit.get("z"), "witness_ratio": wit.get("ratio")}


def render_csv(report: dict) -> str:
    """Rows, one per line; a report without rows lists its verdicts instead."""
    if report["rows"]:
        columns, records = _ROW_COLUMNS, [_flat_row(row) for row in report["rows"]]
    else:
        columns, records = _VERDICT_COLUMNS, report["verdicts"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([_flat_cell(record.get(col)) for col in columns])
    return buf.getvalue()


def render_text(report: dict) -> str:
    lines = [f"{report['command']} ({SCHEMA})  status: {report['status']}"]
    for row in report["rows"]:
        expected = "-" if row["expected"] is None else f"{row['expected']:.12g}"
        line = f"  [{row['status']}] {row['name']}: observed={row['observed']:.12g} expected={expected} method={row['method']}"
        if row.get("bounds"):
            line += f" bounds={row['bounds']}"
        lines.append(line)
    for v in report["verdicts"]:
        line = f"  [{v['status']}] {v['property']}"
        if v.get("counterexample"):
            line += f" counterexample={json.dumps(v['counterexample'], sort_keys=True)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def emit(report: dict, fmt: str, out: str | None) -> None:
    text = _RENDERERS[fmt](report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _base_config(args, seed: int, **extra) -> dict:
    """A report's ``config``: the flags every subcommand reads, then its own."""
    return {"command": args.command, "budget": args.budget, "seed": seed, "format": args.format, **extra}


_VERIFY_CHECKS = ("axioms", "repetition", "nonincreasing", "strong")


def resolve_strong_constant(entry: catalog.CatalogEntry, n: int, k: int, explicit: float | None) -> tuple[float, str]:
    """Pick the constant M for the strong k-simplex check.

    Order: explicit flag; the optimal formula for standard repetition-
    invariant distances; the best k-constant for nonincreasing distances
    with known partial constants.  Anything else needs the flag.
    """
    if explicit is not None:
        constant = float(explicit)
        if not math.isfinite(constant):
            raise ValueError(f"--strong-constant must be finite, got {explicit!r}")
        return constant, "explicit"
    if entry.standard is True and entry.repetition_invariant is True:
        return properties.strong_constant_standard(n, k), "standard-formula"
    if entry.nonincreasing is True and k in entry.constants:
        return entry.constants[k], "best-k-constant"
    raise ValueError(f"no strong constant known for {entry.name} at k={k}; pass --strong-constant")


def run_verify(args) -> dict:
    seed = resolve_seed(args.seed)
    dist_id, params = parse_distance_spec(args.distance)
    space = parse_space(args.space) if args.space else None
    entry, space = build_distance(dist_id, params, args.n, space)
    checks = [c.strip() for c in (args.checks or "axioms").split(",") if c.strip()]
    for c in checks:
        if c not in _VERIFY_CHECKS:
            raise ValueError(f"unknown check {c!r}; known: {', '.join(_VERIFY_CHECKS)}")
    if "strong" not in checks and (args.k is not None or args.strong_constant is not None):
        raise ValueError("--k and --strong-constant need the strong check (--checks strong)")
    ks = parse_int_list(args.k, 2, entry.arity) if args.k else list(range(2, entry.arity + 1))

    verdicts = []
    for c in checks:
        if c == "axioms":
            verdicts.extend(core.check_axioms(entry.distance, space, budget=args.budget, seed=seed))
        elif c == "repetition":
            verdicts.append(
                properties.check_repetition_invariance(
                    entry, space, budget=max(32, args.budget // 500), seed=seed
                )
            )
        elif c == "nonincreasing":
            verdicts.append(
                properties.check_nonincreasing_identification(
                    entry, space, budget=max(64, args.budget // 5), seed=seed
                )
            )
        else:  # strong
            for k in ks:
                constant, origin = resolve_strong_constant(entry, entry.arity, k, args.strong_constant)
                v = properties.check_strong_k_simplex(
                    entry, k, constant, space, budget=max(64, args.budget // 2), seed=seed
                )
                verdicts.append(dataclasses.replace(v, details={**(v.details or {}), "constant_origin": origin}))

    config = _base_config(
        args, seed, space=space_json(space), n=args.n, distance=dist_id, params=params, checks=checks,
        k=ks if "strong" in checks else None,
    )
    return make_report("verify", config, [], [verdict_json(v) for v in verdicts])


def run_constants(args) -> dict:
    seed = resolve_seed(args.seed)
    dist_id, params = parse_distance_spec(args.distance)
    space = parse_space(args.space) if args.space else None
    entry, space = build_distance(dist_id, params, args.n, space)
    n = entry.arity
    tol = args.tolerance if args.tolerance is not None else default_tolerance(space)
    ks = parse_int_list(args.k, 2, n) if args.k else []

    full = analysis.estimate_best_constant(entry, space, budget=args.budget, seed=seed, mode=args.mode)
    rows = [constant_row(f"K*_{n}", full, tol, entry)]
    verdicts = []
    for k in ks:
        part = analysis.estimate_partial_constant(entry, space, k, budget=args.budget, seed=seed, mode=args.mode)
        rows.append(constant_row(f"K*_{n},{k}", part, tol))
        verdicts.append(analysis.check_partial_bound(full, part, tol=max(tol, 1e-6)))
        verdicts.append(analysis.check_symmetrization(full, part, tol=max(tol, 1e-6)))

    config = _base_config(
        args, seed, space=space_json(space), n=args.n, distance=dist_id, params=params, k=ks, mode=args.mode,
        tolerance=args.tolerance,
    )
    return make_report("constants", config, rows, [verdict_json(v) for v in verdicts])


def _table1_specs(n: int) -> list[tuple[str, dict, Space]]:
    """(id, params, space) of each table row at arity n."""
    finite = FiniteSpace(tuple(_LETTERS[:3]))
    line = RealLine()
    plane = Plane()
    specs = [
        ("drastic", {}, finite),
        ("cardinality", {}, finite),
        ("diameter", {"d2": "abs"}, line),
        ("diameter", {"d2": "euclidean"}, plane),
        ("sum-based", {"d2": "abs"}, line),
        ("arithmetic-mean", {}, line),
        ("enclosing-radius", {}, plane),
        ("chebyshev-diameter", {"q": 2}, plane),
        ("inner-interval", {}, line),
        ("fermat", {"d2": "abs"}, line),
    ]
    if n >= 3:
        specs += [("enclosing-area", {}, plane), ("line-count", {}, plane)]
    return specs


def run_table1(args) -> dict:
    seed = resolve_seed(args.seed)
    rows = []
    for dist_id, params, space in _table1_specs(args.n):
        entry = catalog.make(dist_id, args.n, **params)
        tol = args.tolerance if args.tolerance is not None else default_tolerance(space)
        est = analysis.estimate_best_constant(entry, space, budget=args.budget, seed=seed)
        suffix = f"[{params['d2']}]" if "d2" in params else ""
        rows.append(constant_row(f"{dist_id}{suffix} n={args.n}", est, tol, entry))
    config = _base_config(args, seed, n=args.n, tolerance=args.tolerance)
    return make_report("table1", config, rows, [])


_FAMILY_IDS = (
    "enclosing-radius",
    "arithmetic-mean",
    "arithmetic-mean-doubled",
    "line-count",
    "cardinality",
    "drastic",
    "inner-interval",
)


def _build_family(family: str, arities: list[int]) -> tuple[list[catalog.CatalogEntry], Space]:
    """-> (member entries, space)."""
    if family not in _FAMILY_IDS:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(_FAMILY_IDS)}")
    if family == "arithmetic-mean-doubled":
        # binary member replaced by twice the distance, per the passing variant
        doubled = catalog.CatalogEntry(core.NDistance("doubled-mean", 2, "real-line", lambda t: abs(t[0] - t[1])))
        members = [doubled] + [catalog.make("arithmetic-mean", m) for m in arities if m >= 3]
        return members, RealLine()
    members = [catalog.make(family, m) for m in arities]
    space = default_space_for(members[0].distance.space_kind)
    if family in ("cardinality", "drastic"):
        space = FiniteSpace(tuple(_LETTERS[:4]))
    return members, space


def run_multidistance(args) -> dict:
    seed = resolve_seed(args.seed)
    arities = parse_int_list(args.arities, 2, 12, what="arity")
    if arities[0] != 2:
        raise ValueError("the arity range must start at 2 (the binary member)")
    members, space = _build_family(args.family, arities)
    # at least 64 candidates for each member's triangle scan
    budget = max(64 * len(members), args.budget // 5)
    verdicts = [properties.check_multidistance(members, space, budget=budget, seed=seed)]
    two = members[0].distance.evaluator
    g = lambda x, z: two((x, z))
    for member in members:
        if member.arity < 3:
            continue
        v = properties.check_multi_to_ndistance(member, g, space, budget=args.budget // 5, seed=seed)
        verdicts.append(dataclasses.replace(v, property=f"{v.property}(n={member.arity})"))
    config = _base_config(args, seed, family=args.family, arities=arities, space=space_json(space))
    return make_report("multidistance", config, [], [verdict_json(v) for v in verdicts])


# ---------------------------------------------------------------------------
# entry point

# Every flag of every subcommand, specified once; each subcommand declares
# only the flags its run_* reads (see _COMMANDS).
_FLAGS = {
    "--distance": {"required": True, "help": "id or id:key=val,..."},
    "--family": {"required": True, "help": f"one of {', '.join(_FAMILY_IDS)}"},
    "--space": {"help": "finite:3 | finite:a,b,c | real[:lo,hi] | plane[:lo,hi]"},
    "--n": {"type": int, "default": 4, "help": "arity (default 4)"},
    "--k": {"help": "k selection: '3' | '2,3' | '2..5'"},
    "--arities": {"default": "2..5", "help": "arity range, e.g. 2..6"},
    "--checks": {"default": "axioms", "help": f"comma list of {', '.join(_VERIFY_CHECKS)}"},
    "--strong-constant": {"type": parse_value, "default": None},
    "--mode": {"choices": ("auto", "exact", "sampled"), "default": "auto"},
    "--tolerance": {"type": float, "default": None, "help": "row tolerance; default 1e-9, 1e-6 on the plane"},
    "--budget": {"type": positive_int, "default": DEFAULT_BUDGET},
    "--seed": {"type": int, "default": None, "help": "default 42, or $SIMPLEX_LAB_SEED"},
    "--format": {"choices": ("json", "csv", "text"), "default": "json"},
    "--out": {"default": None, "help": "write the report to FILE instead of stdout"},
}
_REPORT_FLAGS = ("--budget", "--seed", "--format", "--out")


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], dict]
    help: str
    flags: tuple[str, ...]


_COMMANDS = {
    "verify": _Command(
        run_verify, "axiom and property checks for one distance",
        ("--distance", "--space", "--n", "--k", "--checks", "--strong-constant"),
    ),
    "constants": _Command(
        run_constants, "estimate K*_n and partial constants with witnesses",
        ("--distance", "--space", "--n", "--k", "--mode", "--tolerance"),
    ),
    "table1": _Command(run_table1, "reproduce the catalog's constants table", ("--n", "--tolerance")),
    "multidistance": _Command(
        run_multidistance, "check a family of distances indexed by arity", ("--family", "--arities"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simplex-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags + _REPORT_FLAGS:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(run=command.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.run(args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        emit(report, args.format, args.out)
    except OSError as exc:  # --out in a missing directory, or a directory itself
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_OK if report["status"] == "pass" else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
