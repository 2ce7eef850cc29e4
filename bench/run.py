"""Time to a verdict: consensuslab's benchmark.

    python3 bench/run.py --workload cx-hunt --seed 1 --seconds 25 --trace 0

Runs one workload through consensuslab's public API in this process, with
one worker, and prints every metric by name and unit, the operations
attempted and failed, the source revision, the CPU count and the Python
version.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the workload runs in whole rounds for about ``--seconds``
seconds (at least one round) and the end-to-end metrics are medians over the
rounds.  With ``--trace 1`` it runs one untraced round and then one traced
round, and reports the per-layer metrics of the traced round together with
the tracing overhead.  Outputs are checked after the timed rounds by the
independent checker in ``checker.py``.  See README.md in this directory for
the workloads and metrics.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before any import below

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cx-hunt", "fuzz-n15", "explore-n5")

# cx-hunt: fuzz each rule variant at each size until its first counterexample.
CX_SIZES = (5, 6)
CX_SEED_LIMIT = 20_000  # far above the highest first failing seed (4,274 for ordering at n=6)
# fuzz-n15: one campaign over seeds 0..FUZZ_SEEDS-1.
FUZZ_N = 15
FUZZ_SEEDS = 100
# explore-n5: criterion 5's crash-free n=5 search and chunking, smaller budget.
EXPLORE_N = 5
EXPLORE_MAX_CONFIGS = 10_000
EXPLORE_CHUNKS = 16
CROSS_CHECK_DEPTH = 4

FAIRNESS_BOUND = 64
MAX_EVENTS = 10_000


def abort(message: str) -> None:
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "consensuslab" / "__init__.py").is_file():
    abort(f"no consensuslab sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import consensuslab  # noqa: E402
from consensuslab.scenario import Scenario, SchedulerSpec, crash_grid, default_values  # noqa: E402

# The package re-exports a function named ``explore``, which shadows the
# submodule as a package attribute, so the modules are looked up by name.
cl_explore = importlib.import_module("consensuslab.explore")
cl_properties = importlib.import_module("consensuslab.properties")
cl_protocol = importlib.import_module("consensuslab.protocol")
cl_schedulers = importlib.import_module("consensuslab.schedulers")
cl_simulation = importlib.import_module("consensuslab.simulation")
cl_trace = importlib.import_module("consensuslab.trace")

import checker  # noqa: E402
from tracer import Tracer  # noqa: E402

if Path(consensuslab.__file__).resolve().parent != (SRC / "consensuslab").resolve():
    abort(f"imported consensuslab from {consensuslab.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Workloads.  Each has a set-up (untimed by the round clock, timed as
# setup_s), a round of operations, and checks run after all rounds.
# ---------------------------------------------------------------------------


def base_scenario(n: int, values) -> Scenario:
    return Scenario(
        n=n,
        values=tuple(values),
        scheduler=SchedulerSpec(type="seeded-random", seed=0, fairness_bound=FAIRNESS_BOUND),
        max_events=MAX_EVENTS,
    )


def distinct_values(rng: random.Random, n: int) -> list:
    """n distinct two-byte inputs; distinct inputs make validity checks strict."""
    return [v.to_bytes(2, "big") for v in rng.sample(range(1, 1 << 16), n)]


class Round:
    """Outputs of one round: operation results and the counts behind the metrics."""

    def __init__(self):
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.results = []


class CxHunt:
    """For the protocol and each rule mutant, at n=5 and n=6: fuzz to the first
    counterexample, minimize the witness, replay both traces."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.hunts = []
        for n in CX_SIZES:
            base = base_scenario(n, distinct_values(rng, n))
            variants = [("protocol", cl_protocol.Rules())] + list(cl_explore.MUTANTS.items())
            for name, rules in variants:
                self.hunts.append((f"{name}@n{n}", replace(base, rules=rules)))
        self.grids = {n: crash_grid(n) for n in CX_SIZES}
        self.deliveries = None  # fuzz-run deliveries per round, counted by check()

    def round(self, rnd: Round) -> None:
        for label, base in self.hunts:
            rnd.attempted += 1
            try:
                verdict = cl_explore.fuzz(base, CX_SEED_LIMIT, values_mode="fixed",
                                          stop_on_first=True)
                small = again = again_small = None
                if verdict.outcome == cl_explore.OUTCOME_COUNTEREXAMPLE:
                    small = cl_explore.minimize(verdict.trace)
                    again = cl_trace.replay(verdict.trace)
                    again_small = cl_trace.replay(small)
            except Exception:
                traceback.print_exc()
                rnd.failed += 1
                continue
            rnd.results.append((label, base, verdict, small, again, again_small))

    def runs(self, rnd: Round) -> int:
        return sum(r[2].stats["runs"] for r in rnd.results)

    def configs_and_deliveries(self, rnd: Round) -> tuple:
        return self.deliveries, self.deliveries

    def check(self, rounds: list) -> list:
        problems = []
        first = rounds[0]
        for label, base, verdict, small, again, again_small in first.results:
            if verdict.outcome == cl_explore.OUTCOME_ALL_PASS:
                if verdict.stats["runs"] != CX_SEED_LIMIT:
                    problems.append(f"{label}: all-pass after {verdict.stats['runs']} runs")
                continue
            if verdict.outcome != cl_explore.OUTCOME_COUNTEREXAMPLE:
                problems.append(f"{label}: unexpected outcome {verdict.outcome}")
                continue
            problems += [f"{label}: {p}" for p in checker.check_witness(
                verdict.trace, again, small, again_small, verdict.prop)]
            if verdict.stats["runs"] != verdict.failing_seed + 1:
                problems.append(f"{label}: {verdict.stats['runs']} runs for first failing "
                                f"seed {verdict.failing_seed}")
        problems += self._rerun_seeds(first)
        signature = [self._signature(r) for r in first.results]
        for rnd in rounds[1:]:
            if [self._signature(r) for r in rnd.results] != signature:
                problems.append("a later round reached different verdicts")
        return problems

    @staticmethod
    def _signature(result) -> tuple:
        label, _base, verdict, small, _a, _b = result
        return (label, verdict.outcome, verdict.prop, verdict.failing_seed,
                verdict.trace and verdict.trace.verdict.config_hash,
                small and small.verdict.config_hash)

    def _rerun_seeds(self, rnd: Round) -> list:
        """Re-run every seed each hunt ran: all seeds before the reported one
        must pass the independent checker and the reported one must fail the
        reported property.  Also counts the deliveries the fuzz runs made."""
        problems = []
        deliveries = 0
        for label, base, verdict, _small, _a, _b in rnd.results:
            grid = self.grids[base.n]
            for seed in range(verdict.stats["runs"]):
                scenario = base.with_crash(grid[seed % len(grid)]).with_seed(seed)
                cfg, _events, _status = cl_trace.run_raw(scenario, record_events=False)
                deliveries += cfg.event_count
                broken = checker.violations(
                    checker.Outcome.from_config(cfg, scenario.values))
                if seed == verdict.failing_seed:
                    if verdict.prop not in broken:
                        problems.append(f"{label}: seed {seed} does not fail {verdict.prop}")
                elif broken:
                    problems.append(f"{label}: seed {seed} fails {sorted(broken)} but fuzz "
                                    f"reported seed {verdict.failing_seed}")
        self.deliveries = deliveries
        return problems


class FuzzN15:
    """One bit-valued fuzz campaign at n=15 over seeds 0..FUZZ_SEEDS-1.

    fuzz derives each run's schedule, crash cell and input bits from the run's
    index, so this workload's inputs do not depend on the benchmark seed."""

    def __init__(self, seed: int):
        self.base = base_scenario(FUZZ_N, default_values(FUZZ_N))
        self.grid = crash_grid(FUZZ_N)
        self.deliveries = None

    def round(self, rnd: Round) -> None:
        rnd.attempted += FUZZ_SEEDS
        collected = []
        try:
            verdict = cl_explore.fuzz(self.base, FUZZ_SEEDS, values_mode="bits",
                                      collect_traces=collected)
        except Exception:
            traceback.print_exc()
            rnd.failed += FUZZ_SEEDS
            return
        rnd.results.append((verdict, collected))

    def runs(self, rnd: Round) -> int:
        return sum(v.stats["runs"] for v, _ in rnd.results)

    def configs_and_deliveries(self, rnd: Round) -> tuple:
        return self.deliveries, self.deliveries

    def check(self, rounds: list) -> list:
        problems = []
        verdict, collected = rounds[0].results[0]
        by_seed = {s.scheduler.seed: (s, d) for s, d in collected}
        if len(by_seed) != len(collected):
            problems.append("collect_traces holds a seed twice")
        failing = set()
        deliveries = 0
        for seed in range(verdict.stats["runs"]):
            if seed not in by_seed:
                failing.add(seed)  # fuzz collects only agreement-passing runs
                continue
            scenario, decided = by_seed[seed]
            if scenario.crash != self.grid[seed % len(self.grid)]:
                problems.append(f"seed {seed}: ran crash cell {scenario.crash}")
            cfg, _events, _status = cl_trace.run_raw(scenario, record_events=False)
            deliveries += cfg.event_count
            outcome = checker.Outcome.from_config(cfg, scenario.values)
            if tuple(decided) != outcome.decided:
                problems.append(f"seed {seed}: collected decisions differ from a re-run")
            # All decided vectors equal, filled slot k holds input k, at most one
            # empty slot, every live process decided.
            broken = checker.violations(outcome) & {
                checker.AGREEMENT, checker.VALIDITY, checker.TERMINATION}
            if broken:
                problems.append(f"seed {seed}: fails {sorted(broken)}")
            if checker.violations(outcome):
                failing.add(seed)
        if verdict.outcome == cl_explore.OUTCOME_ALL_PASS:
            if failing or verdict.stats["runs"] != FUZZ_SEEDS:
                problems.append(f"all-pass verdict, but seeds {sorted(failing)} fail")
        elif verdict.outcome == cl_explore.OUTCOME_COUNTEREXAMPLE:
            if verdict.failing_seed != min(failing, default=None):
                problems.append(f"reported seed {verdict.failing_seed}, lowest failing "
                                f"{min(failing, default=None)}")
            again = cl_trace.replay(verdict.trace)
            if verdict.prop not in checker.violations(checker.Outcome.from_trace(again)):
                problems.append(f"witness does not fail {verdict.prop}")
        else:
            problems.append(f"unexpected outcome {verdict.outcome}")
        self.deliveries = deliveries
        signature = self._signature(rounds[0].results[0])
        for rnd in rounds[1:]:
            if self._signature(rnd.results[0]) != signature:
                problems.append("a later round reached a different verdict")
        return problems

    @staticmethod
    def _signature(result) -> tuple:
        verdict, collected = result
        return (verdict.outcome, verdict.failing_seed, sorted(verdict.stats.items()),
                [(s.scheduler.seed, tuple(d)) for s, d in collected])


class ExploreN5:
    """Criterion 5's crash-free n=5 search, split into 16 chunks and run by
    one worker, on a budget of EXPLORE_MAX_CONFIGS configurations."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.base = base_scenario(EXPLORE_N, distinct_values(rng, EXPLORE_N))
        cells = [c for c in crash_grid(EXPLORE_N) if c is not None]
        self.cross_cell = cells[rng.randrange(len(cells))]
        self.bounds = cl_explore.ExploreBounds(max_configs=EXPLORE_MAX_CONFIGS)
        cfg0, _ = cl_simulation.new_configuration(EXPLORE_N, list(self.base.values))
        self.chunk_runs = min(EXPLORE_CHUNKS, len(cl_simulation.enabled_deliveries(cfg0)))

    def round(self, rnd: Round) -> None:
        rnd.attempted += 1
        try:
            verdict = cl_explore.explore(self.base, self.bounds, chunks=EXPLORE_CHUNKS, workers=1)
        except Exception:
            traceback.print_exc()
            rnd.failed += 1
            return
        rnd.results.append(verdict)

    def runs(self, rnd: Round) -> int:
        return self.chunk_runs * len(rnd.results)

    def configs_and_deliveries(self, rnd: Round) -> tuple:
        configs = sum(v.stats["configs"] for v in rnd.results)
        return configs, configs + sum(v.stats["dedupe_hits"] for v in rnd.results)

    def check(self, rounds: list) -> list:
        problems = []
        verdict = rounds[0].results[0]
        stats = verdict.stats
        if not 0 < stats["configs"] <= EXPLORE_MAX_CONFIGS:
            problems.append(f"configs {stats['configs']} outside 1..{EXPLORE_MAX_CONFIGS}")
        if verdict.outcome == cl_explore.OUTCOME_COUNTEREXAMPLE:
            again = cl_trace.replay(verdict.trace)
            if again.verdict.config_hash != verdict.trace.verdict.config_hash:
                problems.append("witness does not replay to its hash")
            if verdict.prop not in checker.violations(checker.Outcome.from_trace(again)):
                problems.append(f"witness does not fail {verdict.prop}")
        elif verdict.outcome not in (cl_explore.OUTCOME_BOUND, cl_explore.OUTCOME_ALL_PASS):
            problems.append(f"unexpected outcome {verdict.outcome}")
        for rnd in rounds[1:]:
            v = rnd.results[0]
            if (v.outcome, v.prop, v.stats) != (verdict.outcome, verdict.prop, stats):
                problems.append("a later round reached a different verdict")
        for crash in (None, self.cross_cell):
            problems += self._cross_check(self.base.with_crash(crash))
        return problems

    @staticmethod
    def _cross_check(scenario) -> list:
        """Depth-bounded search against an independent breadth-first search."""
        d = CROSS_CHECK_DEPTH
        sizes = checker.bfs_level_sizes(scenario, d, cl_simulation)
        bounds = cl_explore.ExploreBounds(max_depth=d, max_configs=10 * sum(sizes))
        stats = cl_explore.explore(scenario, bounds, chunks=1).stats
        label = f"depth-{d} cross-check, crash {scenario.crash}"
        problems = []
        if stats["frontier"] != sizes[-1]:
            problems.append(f"{label}: frontier {stats['frontier']}, BFS {sizes[-1]} at depth {d}")
        if stats["configs"] - stats["frontier"] != sum(sizes[:-1]):
            problems.append(f"{label}: {stats['configs'] - stats['frontier']} configs below "
                            f"depth {d}, BFS {sum(sizes[:-1])}")
        if stats["configs"] > bounds.max_configs:
            problems.append(f"{label}: configs {stats['configs']} over budget")
        return problems


WORKLOAD_CLASSES = {"cx-hunt": CxHunt, "fuzz-n15": FuzzN15, "explore-n5": ExploreN5}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# Per-layer span names and the consensuslab functions behind them.
TRACED_FUNCTIONS = [
    ("simulation.apply_deliver", cl_simulation, "apply_deliver", None),
    ("simulation.enabled_deliveries", cl_simulation, "enabled_deliveries",
     lambda args: len(args[0].buffer)),
    ("simulation.new_configuration", cl_simulation, "new_configuration", None),
    ("properties.safety_violation", cl_properties, "safety_violation", None),
    ("properties.report_for_config", cl_properties, "report_for_config", None),
    ("properties.check_properties", cl_properties, "check_properties", None),
    ("trace.run_raw", cl_trace, "run_raw", None),
    ("trace.run_config", cl_trace, "run_config", None),
    ("trace.replay", cl_trace, "replay", None),
    ("explore.fuzz", cl_explore, "fuzz", None),
    ("explore.explore", cl_explore, "explore", None),
    ("explore.minimize", cl_explore, "minimize", None),
    ("explore.dfs", cl_explore, "_dfs", None),
]
TRACED_METHODS = [
    ("protocol.ingest", cl_protocol.Process, "ingest", None),
    ("protocol.process", cl_protocol.Process, "process", None),
    ("protocol.state_key", cl_protocol.Process, "state_key", None),
    ("protocol.clone", cl_protocol.Process, "clone", None),
    ("protocol.canonical_bytes", cl_protocol.Process, "canonical_bytes", None),
    ("simulation.clone", cl_simulation.Configuration, "clone", None),
    ("simulation.dedupe_digest", cl_simulation.Configuration, "dedupe_digest", None),
    ("simulation.config_hash", cl_simulation.Configuration, "config_hash", None),
    ("schedulers.next", cl_schedulers.SeededRandomScheduler, "next", None),
    ("schedulers.next", cl_schedulers.ScriptedScheduler, "next", None),
    ("schedulers.next", cl_schedulers.AdversarialLifoScheduler, "next", None),
]
# Reported layers; protocol.ingest_process is one Process step (ingest plus
# the process calls it releases), counted per ingest call.
LAYERS = [
    "protocol.ingest_process", "protocol.state_key", "protocol.clone",
    "protocol.canonical_bytes", "simulation.apply_deliver", "simulation.enabled_deliveries",
    "simulation.clone", "simulation.dedupe_digest", "simulation.config_hash",
    "simulation.new_configuration", "schedulers.next", "properties.safety_violation",
    "properties.report_for_config", "properties.check_properties", "trace.run_raw",
    "trace.run_config", "trace.replay", "explore.fuzz", "explore.explore",
    "explore.minimize", "explore.dfs",
]
LAYER_QUANTITIES = [("calls", "count"), ("us_per_call", "us"),
                    ("self_us_per_call", "us"), ("self_share", "%")]


def layer_totals(tracer: Tracer, layer: str) -> tuple:
    if layer == "protocol.ingest_process":
        calls, total, own, _ = tracer.totals("protocol.ingest")
        _, total_p, own_p, _ = tracer.totals("protocol.process")
        return calls, total + total_p, own + own_p
    calls, total, own, _ = tracer.totals(layer)
    return calls, total, own


def per_layer_metrics(tracer: Tracer, work, traced: Round, untraced: Round) -> dict:
    m = {}
    wall_ns = traced.wall_s * 1e9
    for layer in LAYERS:
        calls, total, own = layer_totals(tracer, layer)
        per = (lambda ns: ns / calls / 1e3) if calls else (lambda ns: 0.0)
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.us_per_call"] = (per(total), "us")
        m[f"{layer}.self_us_per_call"] = (per(own), "us")
        m[f"{layer}.self_share"] = (100.0 * own / wall_ns, "%")
    calls, _, _, entries = tracer.totals("simulation.enabled_deliveries")
    m["simulation.enabled_deliveries.entries_per_call"] = (entries / calls if calls else 0.0, "count")
    m["explore.fuzz.seeds_to_cx"] = (sum(
        v.failing_seed + 1 for v in fuzz_verdicts(work, traced)
        if v.failing_seed is not None), "count")
    m["explore.minimize.replays"] = (tracer.edge_calls("explore.minimize", "trace.run_raw"), "count")
    m["explore.minimize.us"] = (tracer.totals("explore.minimize")[1] / 1e3, "us")
    hunts = traced.results if isinstance(work, CxHunt) else []
    m["explore.minimize.witness_events"] = (
        sum(len(small.events) for _l, _b, _v, small, _a, _s in hunts if small is not None), "count")
    explores = traced.results if isinstance(work, ExploreN5) else []
    m["explore.dfs.dedupe_hits"] = (sum(v.stats["dedupe_hits"] for v in explores), "count")
    m["explore.dfs.terminals"] = (sum(v.stats["terminals"] for v in explores), "count")
    m["explore.dfs.self_us"] = (tracer.totals("explore.dfs")[2] / 1e3, "us")
    m["bench.untraced_wall_s"] = (untraced.wall_s, "s")
    m["bench.traced_wall_s"] = (traced.wall_s, "s")
    m["bench.tracing_overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    m["bench.tracing_overhead_pct"] = (100.0 * (traced.wall_s / untraced.wall_s - 1.0), "%")
    return m


def fuzz_verdicts(work, rnd: Round) -> list:
    if isinstance(work, CxHunt):
        return [r[2] for r in rnd.results]
    if isinstance(work, FuzzN15):
        return [v for v, _ in rnd.results]
    return []


def end_to_end_metrics(work, rounds: list, setup_s: float, peak_rss_mb: float) -> dict:
    walls = [r.wall_s for r in rounds]
    runs_per_s, configs_per_s, ratio = [], [], []
    for r in rounds:
        configs, deliveries = work.configs_and_deliveries(r)
        runs_per_s.append(work.runs(r) / r.wall_s)
        configs_per_s.append((configs or 0) / r.wall_s)
        ratio.append(deliveries / configs if configs else 0.0)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "runs_per_s": (statistics.median(runs_per_s), "1/s"),
        "configs_per_s": (statistics.median(configs_per_s), "1/s"),
        "deliveries_per_config": (statistics.median(ratio), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def timed_round(work) -> Round:
    rnd = Round()
    start = time.perf_counter()
    work.round(rnd)
    rnd.wall_s = time.perf_counter() - start
    return rnd


def source_revision() -> dict:
    """The git commit, when this is a git checkout, and a digest of src/."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        sha = line.split()[0]
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "consensuslab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def declared_metrics() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = WORKLOAD_CLASSES[args.workload](args.seed)
    setup_s = time.perf_counter() - T_START

    tracer = None
    if args.trace:
        untraced = timed_round(work)
        tracer = Tracer()
        tracer.install(TRACED_FUNCTIONS, TRACED_METHODS)
        try:
            traced = timed_round(work)
        finally:
            tracer.uninstall()
        rounds = [untraced, traced]
    else:
        # Whole rounds only: start another round only if it should end
        # within --seconds of the first timed call.
        rounds = [timed_round(work)]
        while sum(r.wall_s for r in rounds) + rounds[-1].wall_s <= args.seconds:
            rounds.append(timed_round(work))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    ok_rounds = [r for r in rounds if r.results]
    problems = work.check(ok_rounds) if ok_rounds else []
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    e2e_units, layer_units = declared_metrics()
    if args.trace:
        metrics = per_layer_metrics(tracer, work, rounds[1], rounds[0])
        expected = layer_units
    else:
        metrics = end_to_end_metrics(work, rounds, setup_s, peak_rss_mb)
        expected = e2e_units
    if {k: u for k, (_, u) in metrics.items()} != expected:
        abort("computed metrics do not match the ones BENCHMARK.json declares")

    env = {**source_revision(), "nproc": os.cpu_count(), "python": platform.python_version()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "rounds": [r.wall_s for r in rounds],
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.jsonl", OUT / f"{stem}-layers.json")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"git {env['git_sha'] or 'unknown'}  src {env['src_sha256']}  "
          f"nproc {env['nproc']}  python {env['python']}")
    print(f"attempted {attempted}  failed {failed}  checks {'ok' if not problems else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
