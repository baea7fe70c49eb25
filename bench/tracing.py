"""Spans recorded around the calls into each module of the package.

The tracer replaces functions in the module namespaces where the package
looks them up (``catalog.smallest_enclosing_circle``, ``analysis._refine``,
...) with wrappers that time each call, and wraps catalog evaluators through
``dataclasses.replace`` on the ``NDistance``.  Nothing under ``src/`` changes.

Calls made once or a few times per job (estimates, refinement, property
checks, constructions, CLI runs) are kept as spans: name, start, end, id and
parent id.  Calls made up to a million times per pass (evaluators, candidate
generation, geometry) are aggregated per name into calls, total and self
time, because one record per call would cost more memory and time than the
work it measures; their durations still count as child time of the span
around them.  Self time is a span's duration minus the time its child spans
cover.  Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time

LAYERS = ("core", "catalog", "geometry", "analysis", "properties", "constructions", "cli")

# check function -> the name it is reported under in properties.check_s.<check>
CHECKS = {
    "core.check_identity": "identity",
    "core.check_symmetry": "symmetry",
    "core.check_simplex": "simplex",
    "properties.check_repetition_invariance": "repetition",
    "properties.check_nonincreasing_identification": "nonincreasing",
    "properties.check_strong_k_simplex": "strong",
    "properties.check_multidistance": "multidistance",
    "properties.check_multi_to_ndistance": "multidistance",
}

# catalog entries of the three workloads, by their NDistance name
ENTRIES = (
    "diameter[abs]",
    "sum-based[abs]",
    "arithmetic-mean",
    "inner-interval",
    "inner-interval-power[p=2]",
    "fermat[abs]",
    "chebyshev-diameter[q=1]",
    "cardinality",
    "drastic",
    "enclosing-radius",
    "enclosing-area",
    "line-count",
    "diameter[euclidean]",
    "chebyshev-diameter[q=2]",
    "fermat[chebyshev]",
    "fermat[euclidean]",
)

FERMAT_EUCLIDEAN = "geometry.fermat_value[euclidean]"

# the core calls that make and take apart (tuple, z) candidates for the scans
CANDIDATE_GENERATION = ("core.sample_pair", "core.structured_pairs", "core.section", "core.distinct_count")


def entry_slug(name: str) -> str:
    """'inner-interval-power[p=2]' -> 'inner-interval-power-p2' (metric-name safe)."""
    return name.replace("[", "-").replace("]", "").replace("=", "")


class Stat:
    """Aggregate of every call recorded under one name."""

    __slots__ = ("layer", "calls", "total", "self_time", "children", "descendants", "parents", "durations")

    def __init__(self, layer: str, keep_durations: bool):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children = 0  # traced calls made directly from these calls
        self.descendants = 0  # traced calls made from these calls at any depth
        self.parents: dict[str, int] = {}  # name of the enclosing call -> calls
        self.durations = [] if keep_durations else None


class Tracer:
    """Per-name call statistics plus the kept spans of one traced run."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._stack: list[list] = []  # open frames: [child time, span id or 0, name, children, descendants]
        self._next_id = 1
        self.degenerate = 0
        self.refines: list[tuple] = []  # (ratio before, ratio after, origin of the pre-refine best)
        self.checked = 0
        self._recipe_pair = None
        self._saved: list[tuple] = []
        self._calibration: tuple[list, list] = ([], [])
        self.overhead_in = 0.0  # seconds of wrapper inside each recorded duration
        self.overhead_out = 0.0  # seconds of wrapper outside it, charged to the caller

    def wrap(self, name: str, layer: str, fn, keep: bool = False, after=None):
        """``fn`` timed as ``name``; ``keep`` records each call as a span.

        ``after(args, result)`` runs once the call has returned, outside its
        timed interval.
        """
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(layer, name == FERMAT_EUCLIDEAN)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        durations = stat.durations
        parents = stat.parents

        def traced(*args, **kwargs):
            if keep:
                frame = [0.0, self._next_id, name, 0, 0]
                self._next_id += 1
            else:
                frame = [0.0, 0, name, 0, 0]
            parent = stack[-1] if stack else None
            pname = parent[2] if parent is not None else ""
            parents[pname] = parents.get(pname, 0) + 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[0] += dur
                    parent[3] += 1
                    parent[4] += 1 + frame[4]
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                stat.children += frame[3]
                stat.descendants += frame[4]
                if durations is not None:
                    durations.append(dur)
                if keep:
                    spans.append((frame[1], self._parent_id(), name, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _parent_id(self) -> int:
        for frame in reversed(self._stack):
            if frame[1]:
                return frame[1]
        return 0

    # -- installation -------------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def calibrate(self, calls: int = 20000, rounds: int = 5) -> None:
        """Measure the wrapper's own cost per call, to take it out of the times.

        A wrapped no-op's recorded duration is overhead inside the interval;
        what a loop of wrapped no-ops costs beyond a loop of plain calls,
        less that, is overhead charged to the caller.  Medians over the
        ``rounds`` of every call so far, so that calibrating before and after
        the traced passes follows the machine's speed during them.
        """
        inside, outside = self._calibration
        for _ in range(rounds):
            probe = Tracer()
            noop = lambda t, z, k: None  # noqa: E731  (three arguments, like the hot calls)
            wrapped = probe.wrap("noop", "bench", noop)
            clock = time.perf_counter
            start = clock()
            for _ in range(calls):
                noop(1, 2, 3)
            plain = clock() - start
            start = clock()
            for _ in range(calls):
                wrapped(1, 2, 3)
            traced = clock() - start
            o_in = probe.stats["noop"].total / calls
            inside.append(o_in)
            outside.append(max(0.0, (traced - plain) / calls - o_in))
        self.overhead_in = statistics.median(inside)
        self.overhead_out = statistics.median(outside)

    def install(self) -> None:
        """Wrap the module-boundary functions of the package in place."""
        from simplex_lab import analysis, catalog, cli, constructions, core, geometry, properties

        self._patch(catalog, "make", self.wrap("catalog.make", "catalog", self._traced_make(catalog.make), keep=True))
        self._patch(catalog, "smallest_enclosing_circle",
                    self.wrap("geometry.smallest_enclosing_circle", "geometry", catalog.smallest_enclosing_circle))
        self._patch(catalog, "count_lines", self.wrap("geometry.count_lines", "geometry", catalog.count_lines))
        by_ground = {
            g: self.wrap(f"geometry.fermat_value[{g}]", "geometry", catalog.fermat_value)
            for g in geometry.GROUND_KINDS
        }
        self._patch(catalog, "fermat_value", lambda points, ground="abs": by_ground[ground](points, ground))

        sample = self.wrap("core.sample_pair", "core", core.sample_pair)
        self._patch(analysis, "sample_pair", sample)
        self._patch(core, "sample_pair", sample)
        # tuple operations of the candidate fold, looked up in analysis's namespace
        for attr in ("section", "distinct_count"):
            self._patch(analysis, attr, self.wrap(f"core.{attr}", "core", getattr(analysis, attr)))
        self._patch(analysis, "structured_pairs",
                    self.wrap("core.structured_pairs", "core", analysis.structured_pairs, keep=True))
        self._patch(analysis, "_eval_candidate",
                    self.wrap("analysis._eval_candidate", "analysis", analysis._eval_candidate, after=self._candidate))
        self._patch(analysis, "_refine", self.wrap("analysis._refine", "analysis", analysis._refine, keep=True,
                                                   after=self._refined))
        for attr in ("estimate_best_constant", "estimate_partial_constant"):
            self._patch(analysis, attr, self._with_recipe(
                self.wrap(f"analysis.{attr}", "analysis", getattr(analysis, attr), keep=True)))

        self._patch(core, "check_axioms", self.wrap("core.check_axioms", "core", core.check_axioms, keep=True))
        for qualified in CHECKS:
            module = core if qualified.startswith("core.") else properties
            attr = qualified.split(".", 1)[1]
            self._patch(module, attr, self.wrap(qualified, module.__name__.rsplit(".", 1)[1],
                                                getattr(module, attr), keep=True, after=self._checked))
        for attr in ("single_anchor_distance", "two_anchor_distance", "strong_extremal_distance"):
            self._patch(constructions, attr,
                        self.wrap(f"constructions.{attr}", "constructions", getattr(constructions, attr), keep=True))
        for attr in ("main", "make_report", "emit"):
            self._patch(cli, attr, self.wrap(f"cli.{attr}", "cli", getattr(cli, attr), keep=True))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def traced_entry(self, entry):
        """A copy of a catalog entry whose evaluator records ``catalog.eval[<name>]``."""
        d = entry.distance
        ev = self.wrap(f"catalog.eval[{d.name}]", "catalog", d.evaluator)
        return dataclasses.replace(entry, distance=dataclasses.replace(d, evaluator=ev))

    def _traced_make(self, make):
        def traced_make(*args, **kwargs):
            return self.traced_entry(make(*args, **kwargs))

        return traced_make

    def _with_recipe(self, estimate):
        # remember the recipe candidate so that _refine can tell where its input came from
        def run(dist, space, *args, **kwargs):
            recipe = getattr(dist, "witness_recipe", None)
            self._recipe_pair = recipe(space) if recipe is not None else None
            return estimate(dist, space, *args, **kwargs)

        return run

    # -- observers ----------------------------------------------------------

    def _candidate(self, args, result) -> None:
        if result is None:
            self.degenerate += 1

    def _refined(self, args, result) -> None:
        from simplex_lab.core import structured_pairs

        _, space, n, _, best = args
        pair = (best[1], best[2])
        if pair == self._recipe_pair:
            origin = "recipe"
        elif pair in structured_pairs(space, n):
            origin = "structured"
        else:
            origin = "sampled"
        self.refines.append((best[0], result[0], origin))

    def _checked(self, args, result) -> None:
        self.checked += (result.details or {}).get("checked", 0)

    # -- results ------------------------------------------------------------

    # Times below have the calibrated wrapper cost taken out: a call's own
    # inside share, and for self time the outside share of its direct
    # children, for inclusive time the whole cost of all its descendants.

    def _self(self, stat: Stat) -> float:
        return max(0.0, stat.self_time - stat.calls * self.overhead_in - stat.children * self.overhead_out)

    def _total(self, stat: Stat) -> float:
        per_call = self.overhead_in + self.overhead_out
        return max(0.0, stat.total - stat.calls * self.overhead_in - stat.descendants * per_call)

    def without_wrappers(self, traced_wall: float) -> float:
        """``traced_wall`` less the wrapper cost of every traced call."""
        calls = sum(s.calls for s in self.stats.values())
        return traced_wall - calls * (self.overhead_in + self.overhead_out)

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for stat in self.stats.values():
            out[stat.layer] += self._self(stat)
        return out

    def total(self, name: str) -> float:
        stat = self.stats.get(name)
        return self._total(stat) if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def per_call_us(self, name: str) -> float:
        stat = self.stats.get(name)
        return 1e6 * self._total(stat) / stat.calls if stat and stat.calls else 0.0

    def metrics(self, passes: int, traced_wall: float, overhead_frac: float, cpu_s: float) -> dict[str, tuple]:
        """The per-layer metrics as name -> (value, unit), per pass where they are totals.

        ``traced_wall`` is the summed wall time of the ``passes`` traced passes;
        shares are of it less the wrapper cost.  ``overhead_frac`` and
        ``cpu_s`` come from the caller, which also ran untraced passes.
        """
        m: dict[str, tuple] = {}
        traced_wall = self.without_wrappers(traced_wall)
        for name in ENTRIES:
            m[f"catalog.eval_us.{entry_slug(name)}"] = (self.per_call_us(f"catalog.eval[{name}]"), "us")
        evals = [s for n, s in self.stats.items() if n.startswith("catalog.eval[")]
        candidates = self.calls("analysis._eval_candidate")
        in_candidates = sum(s.parents.get("analysis._eval_candidate", 0) for s in evals)
        m["catalog.eval_calls"] = (sum(s.calls for s in evals) / passes, "count")
        m["catalog.eval_calls_per_candidate"] = (in_candidates / candidates if candidates else 0.0, "count")

        layer = self.layer_self()
        m["core.candidate_us"] = (self.per_call_us("core.sample_pair"), "us")
        candidate_self = sum(self._self(self.stats[n]) for n in CANDIDATE_GENERATION if n in self.stats)
        m["core.candidate_share"] = (candidate_self / traced_wall, "frac")

        m["geometry.sec_us"] = (self.per_call_us("geometry.smallest_enclosing_circle"), "us")
        m["geometry.count_lines_us"] = (self.per_call_us("geometry.count_lines"), "us")
        durations = sorted(d - self.overhead_in for d in self.stats[FERMAT_EUCLIDEAN].durations
                           ) if FERMAT_EUCLIDEAN in self.stats else []
        tail_pct = tail_percentile(len(durations))
        m["geometry.fermat_euclidean_us.p50"] = (1e6 * percentile(durations, 50.0), "us")
        m["geometry.fermat_euclidean_us.tail"] = (1e6 * percentile(durations, tail_pct), "us")
        m["geometry.fermat_euclidean_us.tail_pct"] = (tail_pct, "pct")
        m["geometry.fermat_euclidean_us.samples"] = (len(durations), "count")

        refines = self.refines
        m["analysis.scan_self_s"] = (layer["analysis"] / passes, "s")
        m["analysis.candidates"] = (candidates / passes, "count")
        m["analysis.degenerate_frac"] = (self.degenerate / candidates if candidates else 0.0, "frac")
        m["analysis.refine_s"] = (self.total("analysis._refine") / passes, "s")
        m["analysis.refine_gain"] = (
            math.fsum(a - b for b, a, _ in refines) / len(refines) if refines else 0.0, "ratio")
        m["analysis.refine_improved_frac"] = (
            sum(a > b for b, a, _ in refines) / len(refines) if refines else 0.0, "frac")
        m["analysis.sampled_win_frac"] = (
            sum(o == "sampled" for _, _, o in refines) / len(refines) if refines else 0.0, "frac")

        check_s = dict.fromkeys(CHECKS.values(), 0.0)
        for qualified, check in CHECKS.items():
            check_s[check] += self.total(qualified)
        for check, seconds in check_s.items():
            m[f"properties.check_s.{check}"] = (seconds / passes, "s")
        m["properties.checked"] = (self.checked / passes, "count")
        m["constructions.build_s"] = (
            sum(self.total(n) for n in self.stats if n.startswith("constructions.")) / passes, "s")
        m["cli.report_s"] = ((self.total("cli.make_report") + self.total("cli.emit")) / passes, "s")

        for name in LAYERS:
            m[f"{name}.share"] = (layer[name] / traced_wall, "frac")
        m["bench.share"] = (max(0.0, traced_wall - sum(layer.values())) / traced_wall, "frac")
        m["cpu_s"] = (cpu_s, "s")
        m["tracing_overhead_frac"] = (overhead_frac, "frac")
        return m

    def document(self, meta: dict) -> dict:
        """The kept spans and the per-name aggregates, for writing out as JSON."""
        doc = {
            "meta": meta,
            "spans": [{"id": i, "parent": p, "name": n, "start": s, "end": e} for i, p, n, s, e in self.spans],
            "overhead_s": {"inside": self.overhead_in, "outside": self.overhead_out},
            "aggregates": {
                name: {"layer": s.layer, "calls": s.calls, "total_s": s.total, "self_s": s.self_time,
                       "parents": s.parents}
                for name, s in sorted(self.stats.items())
            },
        }
        return doc


def tail_percentile(samples: int) -> float:
    """Highest percentile with at least ten samples beyond it (0 when too few)."""
    if samples < 20:
        return 0.0
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if samples * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
