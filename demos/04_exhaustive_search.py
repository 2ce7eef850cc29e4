"""Bounded exhaustive interleaving search.

Every reachable configuration (process states + message buffer) is
visited depth-first; equivalent configurations reached along different
delivery orders collapse to one exact key over interned process states
and messages.  Safety is checked at every visited configuration,
termination and the entrant-count guarantee at every maximal one.

Two searches run below.  The broken-rule variant finds an agreement
counterexample within a few hundred configurations.  The unmodified
protocol's no-crash space is far larger than a desk-scale budget, so that
search ends bound-exhausted with coverage statistics.  On criterion 5's
budget of 5,000,000 configurations in 16 chunks it ends in an agreement
counterexample instead: once a process has decided and sent its second
proposal, the search makes only one delivery to it per configuration,
since such deliveries commute with every other.  And where two deliveries
to one process commute at its current state, the search does not make
them in both orders, so a single search without chunks finds the race after
429,848 configurations.  The fuzzer (demo 02) and the racing schedule
(demo 03) reach the same race in well under a second.
"""

import time
from dataclasses import replace

from consensuslab.explore import MUTANTS, ExploreBounds, explore
from consensuslab.protocol import MsgKind
from consensuslab.scenario import Scenario, SchedulerSpec, default_values
from consensuslab.simulation import CrashPoint, CrashSpec

base = Scenario(n=5, values=tuple(default_values(5)), scheduler=SchedulerSpec())

print("1) protocol with the adoption rule disabled, one mid-proposal crash cell")
crash = CrashSpec(4, CrashPoint.DURING, MsgKind.FIRST, frozenset({0}))
mutant = replace(base, crash=crash, rules=MUTANTS["adopt-full"])
t0 = time.time()
verdict = explore(mutant, ExploreBounds(max_configs=100_000))
print(f"   {verdict.summary()}  ({time.time() - t0:.1f}s)")
if verdict.trace is not None:
    print(f"   witness: {len(verdict.trace.events)} events, hash {verdict.trace.verdict.config_hash}")

print()
print("2) unmodified protocol, no crash, modest budget")
t0 = time.time()
verdict = explore(base, ExploreBounds(max_configs=150_000), chunks=8)
print(f"   {verdict.summary()}  ({time.time() - t0:.1f}s)")
print()
print(
    "   With max_configs=5,000,000 and chunks=16 (acceptance criterion 5) the\n"
    "   search ends in an agreement counterexample found by the 16th chunk;\n"
    "   chunks/workers split the search deterministically."
)
