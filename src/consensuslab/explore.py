"""Schedule fuzzing, bounded exhaustive interleaving search, and trace
minimization.

Both drivers end in one of three outcomes: every checked run satisfied
all properties (``all-pass``), a property failed and a replayable witness
trace is attached (``counterexample``), or a budget ran out first
(``bound-exhausted``).
"""

from __future__ import annotations

import concurrent.futures
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

from .errors import ConfigError, ConsensusLabError
from .properties import (
    PROPERTY_NAMES,
    TERMINATION,
    check_properties,
    report_for_config,
    safety_violation,
    terminal_violation,
)
from .protocol import Message, Rules
from .scenario import Scenario, SchedulerSpec, bit_values, crash_grid
from .schedulers import ScriptedScheduler
from .simulation import (
    Configuration,
    Deliver,
    configuration_image,
    new_configuration,
    step_process,
)
from .trace import STATUS_COMPLETE, STATUS_STUCK, Trace, run, run_raw, scripted

OUTCOME_ALL_PASS = "all-pass"
OUTCOME_COUNTEREXAMPLE = "counterexample"
OUTCOME_BOUND = "bound-exhausted"

# The exit code of each outcome, for the CLI (which exits 1 on a usage error).
EXIT_FOR_OUTCOME = {OUTCOME_ALL_PASS: 0, OUTCOME_COUNTEREXAMPLE: 2, OUTCOME_BOUND: 3}

# The four rule mutants used to prove the checkers are not vacuous.
MUTANTS = {
    "ordering": Rules(ordered_delivery=False),
    "fill-mismatch": Rules(fill_on_gap_mismatch=False),
    "fill-relay": Rules(fill_on_second=False),
    "adopt-full": Rules(adopt_full_vector=False),
}


@dataclass(frozen=True)
class ExploreBounds:
    """An ``explore`` call's frontier, ``max_depth`` deliveries from the
    start, and its hard cap on stored configurations, all chunks together."""

    max_depth: Optional[int] = None  # None = bounded only by the run itself
    max_configs: int = 5_000_000

    def validate(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be positive")
        if self.max_configs < 1:
            raise ConfigError("max_configs must be positive")


@dataclass
class CheckVerdict:
    """The outcome of ``explore`` or ``fuzz``; ``failing_seed`` names the
    fuzz seed of a counterexample."""

    outcome: str
    prop: Optional[str] = None
    trace: Optional[Trace] = None
    stats: dict = field(default_factory=dict)
    failing_seed: Optional[int] = None

    @property
    def exit_code(self) -> int:
        return EXIT_FOR_OUTCOME[self.outcome]

    def summary(self) -> str:
        seed = "" if self.failing_seed is None else f" at seed {self.failing_seed}"
        extra = f" ({self.prop}{seed})" if self.prop else ""
        stats = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
        return f"{self.outcome}{extra} [{stats}]"


def _failing_trace(scenario: Scenario, prop: str, what: str) -> Trace:
    """Run ``scenario`` as a trace and prove that it fails ``prop``: a
    trace that passes is an internal error naming ``what``."""
    trace = run(scenario)
    if check_properties(trace).check(prop).ok:
        raise ConsensusLabError(f"internal error: {what} does not fail {prop}")
    return trace


# ---------------------------------------------------------------------------
# Exhaustive interleaving search
# ---------------------------------------------------------------------------


def _events(messages: list) -> list:
    return [Deliver(m.sender, m.seq, m.dest, m.kind) for m in messages]


def _finished(proc) -> bool:
    """Has ``proc`` decided and sent its second proposal?  Then it will never
    broadcast again, so no crash can bite it and a delivery to it only
    records something; see ``_dfs``."""
    return proc.second_sent and proc.decided is not None


_NODE_BITS = 20  # the width of one process's state id in a dedupe key


class _Tables:
    """The interned parts of one search's configurations (collapse
    compression: Holzmann, "State Compression in SPIN", SPIN 1997).

    Each distinct process state gets a node id, interned by its exact
    ``state_key``, and each distinct message a message id.  A
    configuration in the search is a list of node ids in pid order, the
    crashed process, and a bitmask of its buffered message ids; a search
    storing millions of configurations meets a few hundred process states
    and messages.  Its dedupe key is one exact int: process i's node id in
    the ``_NODE_BITS``-wide field i, the crashed pid plus one (0 for none)
    above them, and the buffer mask above that.  A node id that outgrows
    its field raises instead of aliasing another state.

    ``step`` makes each transition once, on a clone of the destination's
    ``Process``.  ``commutes`` memoizes, per node id, whether two deliveries
    to that process commute, and ``safety`` the safety verdict per tuple of
    decision classes.  The tables describe one scenario's configurations
    (the image leaves out the rules and the final quorum), so they serve
    one ``explore`` call only.
    """

    def __init__(self, base: Scenario):
        self.n = n = base.n
        self.crash = base.crash
        self.procs: list = []  # node id -> its Process, never mutated
        self.finished: list = []  # node id -> _finished(process)
        self.node_ids: dict = {}  # state_key -> node id
        self.msgs: list = []  # message id -> Message
        self.dest: list = []  # message id -> its destination
        self.to: list = [0] * n  # destination -> the mask of its message ids
        self.msg_ids: dict = {}  # Message -> message id
        self.steps: list = []  # message id -> {node id -> transition}
        self.commute: dict = {}  # (node id, message id a) -> {message id b -> commute}
        self.classes: list = []  # node id -> the id of its (decided, decision_entry)
        self.class_ids: dict = {}  # (decided, decision_entry) -> class id
        self.verdicts: dict = {}  # class ids of a configuration -> safety_violation's
        self.values = list(base.values)
        self.crash_shift = n * _NODE_BITS
        self.mask_shift = self.crash_shift + n.bit_length()

    def node(self, proc) -> int:
        """The id of ``proc``'s state; a new state keeps ``proc`` itself,
        which must not be mutated afterwards."""
        state = proc.state_key()
        node = self.node_ids.get(state)
        if node is None:
            node = len(self.procs)
            if node >> _NODE_BITS:
                raise ConsensusLabError(
                    f"more than 2^{_NODE_BITS} process states: too many for the dedupe key"
                )
            self.node_ids[state] = node
            self.procs.append(proc)
            self.finished.append(_finished(proc))
            decision = (proc.decided, proc.decision_entry)
            self.classes.append(self.class_ids.setdefault(decision, len(self.class_ids)))
        return node

    def message(self, m) -> int:
        mid = self.msg_ids.get(m)
        if mid is None:
            mid = self.msg_ids[m] = len(self.msgs)
            self.msgs.append(m)
            self.dest.append(m.dest)
            self.to[m.dest] |= 1 << mid
            self.steps.append({})
        return mid

    def start(self, cfg) -> tuple:
        """The node ids, dedupe key and enabled message ids (in send order)
        of a real configuration, whose processes become table entries."""
        nodes = [self.node(p) for p in cfg.processes]
        key = sum(node << (_NODE_BITS * i) for i, node in enumerate(nodes))
        key += (0 if cfg.crashed is None else cfg.crashed + 1) << self.crash_shift
        key += sum(1 << self.message(e.message) for e in cfg.buffer.values()) << self.mask_shift
        return nodes, key, [self.message(e.message) for e in cfg.enabled]

    def step(self, node: int, mid: int, crashed: Optional[int]) -> tuple:
        """The transition that delivers message ``mid`` to its destination
        in state ``node``, with crashed process ``crashed``: (the
        destination's new node id, the change of the dedupe key, the sent
        message ids in send order, whether a crash bit, whether the
        destination's decision or decision-stage entry changed).

        ``simulation.step_process`` makes it on a clone of the destination's
        ``Process``; this interns the result.  That step reads the
        destination's own state, the message and the crash anchor, and
        nothing else of the configuration: so a transition is keyed by
        (node id, message id) alone.  A pending crash's victim is pending
        at every delivery to it, since once crashed it gets none.
        """
        m, before = self.msgs[mid], self.procs[node]
        d, proc = m.dest, before.clone()
        broadcasts, bites = step_process(proc, self.crash if crashed is None else None, m)
        new = self.node(proc)
        sent = [self.message(Message(d, to, seq, kind, payload))
                for (kind, payload, seq), dests in broadcasts for to in dests]
        delta = (new - node) << (_NODE_BITS * d)
        delta += (sum(1 << s for s in sent) - (1 << mid)) << self.mask_shift
        if bites:
            delta += (d + 1) << self.crash_shift
        changed = proc.decided != before.decided or proc.decision_entry != before.decision_entry
        step = self.steps[mid][node] = (new, delta, sent, bites, changed)
        return step

    def _two_steps(self, node: int, crashed: Optional[int], first: int, second: int):
        """The node id of the common destination, in state ``node``, after
        delivering ``first`` and then ``second``, and the set of message ids
        the two sent; None if either bites a crash."""
        step = self.steps[first].get(node) or self.step(node, first, crashed)
        if step[3]:
            return None
        last = self.steps[second].get(step[0]) or self.step(step[0], second, crashed)
        if last[3]:
            return None
        return last[0], frozenset(step[2] + last[2])

    def commutes(self, node: int, crashed: Optional[int], a: int, b: int) -> bool:
        """Do deliveries ``a`` and ``b`` to the same process d, in state
        ``node``, commute with crashed process ``crashed``?  They do when
        neither order bites a crash and both end in the same node id for d
        having sent the same messages: then a then b and b then a reach the
        same configuration.  Both are steps of d alone (see ``step``), so
        the verdict depends only on d's node id; it is memoized in
        ``commute[node, a][b]`` and ``commute[node, b][a]``."""
        row = self.commute.setdefault((node, a), {})
        verdict = row.get(b)
        if verdict is None:
            ends = self._two_steps(node, crashed, a, b)
            verdict = ends is not None and ends == self._two_steps(node, crashed, b, a)
            row[b] = self.commute.setdefault((node, b), {})[a] = verdict
        return verdict

    def sleep(self, nodes: list, crashed: Optional[int], tried: int, mid: int) -> int:
        """The sleep set of the child that delivers message ``mid`` at the
        configuration with processes ``nodes`` and crashed process
        ``crashed``, whose sleep set plus the deliveries already made from
        it is the message-id mask ``tried`` (without ``mid``): the
        deliveries in ``tried`` to other processes, and those to ``mid``'s
        destination that commute with ``mid`` there.  Every delivery in
        ``tried`` is enabled at that configuration."""
        d = self.dest[mid]
        same = tried & self.to[d]
        if not same:
            return tried
        sleep = tried ^ same
        node = nodes[d]
        row = self.commute.get((node, mid), {})
        while same:
            bit = same & -same
            same ^= bit
            b = bit.bit_length() - 1
            verdict = row.get(b)
            if verdict is None:
                verdict = self.commutes(node, crashed, mid, b)
            if verdict:
                sleep |= bit
        return sleep

    def safety(self, nodes: list, crashed: Optional[int]) -> Optional[tuple]:
        """``safety_violation`` at the configuration with processes
        ``nodes``, memoized by their decision classes: the check reads only
        each process's ``decided`` and ``decision_entry``."""
        classes = tuple([self.classes[i] for i in nodes])
        if classes not in self.verdicts:
            self.verdicts[classes] = safety_violation(self.configuration(nodes, crashed),
                                                      self.values)
        return self.verdicts[classes]

    def configuration(self, nodes: list, crashed: Optional[int]) -> Configuration:
        """A configuration with these processes and an empty buffer, for the
        property checks, which read only the processes and the crashed one."""
        return Configuration(processes=[self.procs[i] for i in nodes], crashed=crashed)

    def image(self, nodes: list, crashed: Optional[int], key: int) -> bytes:
        """The ``canonical_bytes`` of the configuration with ``nodes``,
        ``crashed`` and dedupe key ``key``."""
        mask = key >> self.mask_shift
        return configuration_image(
            [self.procs[i].canonical_bytes() for i in nodes], crashed,
            self.crash is not None and crashed is None,
            [self.msgs[i] for i in range(mask.bit_length()) if mask >> i & 1],
        )


def _dfs(cfg0, base: Scenario, bounds: ExploreBounds, prefix: list, stats: dict, seen: set,
         tables: _Tables, sink: Optional[set] = None, roots: Optional[list] = None):
    """Depth-first search over the delivery interleavings from ``cfg0``.

    ``prefix`` lists the messages delivered to reach ``cfg0``.  Returns
    (property, witness_events) or None.  Children are expanded
    newest-delivery-first, which reaches adversarial reorderings early.
    With ``roots``, positions in ``cfg0``'s send-ordered enabled list,
    ``cfg0`` is not stored and only those deliveries are made from it,
    newest first (one chunk of ``explore``); its depth is still
    ``len(prefix)``, so the frontier's depth does not depend on chunking.
    The search stores at most ``stats["budget"]`` configurations.

    The search runs on ``tables``, the interned states of the ``explore``
    call (see ``_Tables``): ``cfg0``'s processes and messages are interned,
    and from there on a configuration is a list of node ids, its dedupe
    key and its enabled message ids in send order.  A delivery looks its
    transition up by (node id, message id), made once on a miss; the
    child's key is the parent's plus the transition's delta, so a delivery
    that reaches a stored configuration is a dict lookup, an integer
    addition and a set probe, and no delivery clones or hashes anything.
    ``seen`` holds the exact keys of the stored configurations.  Depth is
    not part of the key even under a depth bound: every path to a
    configuration has the same length (see below), so its depth is a
    function of the configuration.  ``sink`` collects the images
    (``Configuration.canonical_bytes``) of terminal and depth-frontier
    configurations, which lets tests cross-validate the reductions.

    Two reductions cut the search.  Their independence relation is read
    off the transition table, per state (conditional independence: Katz &
    Peled 1992; Godefroid & Pirottin, CAV 1993).  Deliveries to different
    processes are independent everywhere: a delivery changes only its
    destination's process and appends to the buffer, and a crash disables
    only the victim's inbound messages.  Two deliveries a and b to one
    process are independent at a configuration if they commute there
    (``_Tables.commutes``): neither order bites a crash, and both end
    in the same process state having sent the same messages, so both reach
    the same configuration.

    One delivery to a finished process.  A process that has decided and
    sent its second proposal has broadcast all four kinds, so it never
    broadcasts again and no crash can bite it (a crash bites only at the
    victim's own broadcast).  A delivery to it only records a value, a
    tally, a second count or a final slot; these records commute with each
    other and send nothing, so such a delivery is independent of every
    other delivery, including those to the same process, and it is
    invisible: it never changes ``decided`` or ``decision_entry``.  At a
    configuration with an enabled delivery to a finished process, the
    search makes only that delivery (the newest such), a singleton ample
    set (Peled 1993); otherwise it makes every enabled delivery outside
    the sleep set.  The search carries the bitmask of the finished
    processes, which only grows along a path, so the enabled deliveries
    are scanned for the rule only when the mask is nonzero.

    Sleep sets with state caching (Godefroid 1996) skip deliveries whose
    configuration an earlier branch has already reached.  A child's sleep
    set is its parent's sleep set plus the deliveries already made from
    the parent, less those that are dependent, at the parent, on the
    delivery that made the child (``_Tables.sleep``); ``cfg0``'s sleep
    set is empty, so a chunk's later roots sleep on its earlier ones by the
    same rule.  A sleep set is a mask of message ids, like the buffer mask
    of the dedupe key.  A delivery in a sleep set is never made.

    Soundness: the search reaches the same terminal configurations as the
    unreduced search, and finds a violation iff the unreduced search does
    (both within budget).  Every path to a configuration has the same
    length (the messages sent less those still buffered), so the graph is
    acyclic, and a stored configuration reached again is deeper than every
    configuration on the stack and so fully expanded.  By induction in the
    order expansions finish, every terminal reachable from a fully
    expanded configuration x is stored.  Let z be reached from x by a path
    w.  (1) If x has an ample delivery t, t is never disabled, so it occurs
    in w, and it commutes with every delivery before it: z is reachable
    from x's t-child.  (2) Otherwise w starts with some delivery t, and z
    is reachable from x's t-child.  If t was made, that child was stored
    and fully expanded, now or before.  If t is in x's sleep set, t was
    made at an ancestor a of x (for a chunk's root, at ``cfg0``) before
    the branch leading to x.  Let p = p_1 ... p_k be the path from a to x
    and y_i the configuration after p_1 ... p_i.  When p_i was made at
    y_(i-1), t was asleep or already made there and stayed asleep in y_i,
    so t and p_i commute at y_(i-1): p_i then t reaches what t then p_i
    does.  Swapping t back past p_k, ..., p_1 one delivery at a time, x's
    t-child is a's t-child followed by p, and a's t-child was fully
    expanded before x was reached.  Either way z is stored.  So a stored
    configuration reached again is not expanded again, even with a smaller
    sleep set than it was stored with: Godefroid's re-expansion of the
    difference is not needed.  Only
    terminal and frontier configurations are judged by ``full_entrants``
    and ``termination``, and every safety property reads only ``decided``
    and ``decision_entry``, which are fixed once set, so a reachable safety
    violation persists to a reachable terminal.  A finished process's step
    raises only on a property of the message itself or on a second
    proposal that differs from its fixed ``second_value``, so whether it
    raises does not depend on the order of its deliveries.  The reduced
    search stores fewer configurations than the unreduced one, so
    ``configs``, ``dedupe_hits`` and, under a depth bound deep enough for
    a process to finish, the frontier differ; ``configs + dedupe_hits`` is
    the number of deliveries made.  Until some process has finished the
    search stores the unreduced search's configurations in its order.

    The safety check runs on a new configuration only if the delivery
    changed its destination's decision or decision-stage entry: the parent
    passed it, and nothing else it reads can change.  Its verdict is
    memoized by the processes' decision classes (``_Tables.safety``).  The
    loop is ``_Search.run``.
    """
    return _Search(cfg0, base, bounds, prefix, stats, seen, tables, sink, roots).run(
        stats["budget"])


_COUNTS = ("configs", "dedupe_hits", "terminals", "frontier")


class _Search:
    """One ``_dfs`` search whose stack, path, seen set and counts survive
    a budget stop: ``run(budget)`` carries on where the last call stopped,
    so a search run in slices stores what one run stores, in its order.

    Only a configuration with several deliveries to make, less its sleep
    set, gets a stack frame.  Through one with a single delivery the loop
    descends in place, overwriting node ids and an enabled list that no
    frame holds; and since a delivery to a finished process sends nothing
    and finishes no one, the child's scan for the rule starts below it.
    With ``roots``, ``cfg0`` is the bottom frame, unstored, whose children
    are the roots."""

    def __init__(self, cfg0, base: Scenario, bounds: ExploreBounds, prefix: list, stats: dict,
                 seen: set, tables: _Tables, sink: Optional[set] = None,
                 roots: Optional[list] = None):
        self.values, self.prefix, self.depth0 = list(base.values), list(prefix), len(prefix)
        self.stats, self.seen, self.tables, self.sink = stats, seen, tables, sink
        depth = sys.maxsize if bounds.max_depth is None else bounds.max_depth
        self.limit = max(depth, self.depth0 + 1)  # the frontier's depth; cfg0 is expanded
        self.path: list = []  # the message ids delivered from cfg0
        # A frame is [node ids, dedupe key, enabled message ids in send order,
        # crashed process, children (taken newest first, from the end), how
        # many are left, depth, sleep set plus the children tried, finished
        # processes].  ``here``, the configuration to expand next, is (node
        # ids, key, enabled ids, crashed, depth, sleep set, finished, the
        # position the scan for the one-delivery rule starts at).
        self.stack: list = []
        self.here = self.found = None
        v = safety_violation(cfg0, self.values)
        if v is not None:
            self.found = v[0], _events(prefix)
            return
        nodes, key, enabled = tables.start(cfg0)
        finished = sum(1 << i for i, node in enumerate(nodes) if tables.finished[node])
        if roots is None:
            stats["configs"] += 1
            seen.add(key)
            self.here = (nodes, key, enabled, cfg0.crashed, self.depth0, 0, finished,
                         len(enabled) - 1)
        else:
            children = [enabled[i] for i in sorted(roots)]
            self.stack.append([nodes, key, enabled, cfg0.crashed, children, len(children),
                               self.depth0, 0, finished])

    def run(self, budget: int):
        """Search on until a property fails, nothing is left, or a delivery
        reaches a new configuration with ``budget`` configurations stored
        in all: that delivery is refused (``stats["exhausted"]``), and a
        later call makes it again.  A search that stores exactly its budget
        and finds nothing new after it ends as it would unbounded.  Returns
        (property, witness_events) or None."""
        stats, here = self.stats, self.here
        self.here = None
        tables, seen, sink, path, stack = self.tables, self.seen, self.sink, self.path, self.stack
        steps, dest, to, ends = tables.steps, tables.dest, tables.to, tables.finished
        step_of, sleep_of, safety = tables.step, tables.sleep, tables.safety
        limit, depth0, values = self.limit, self.depth0, self.values
        configs, hits, terminals, frontier = [stats[k] for k in _COUNTS]
        expand = here is not None
        if expand:
            nodes, key, enabled, crashed, depth, sleep, finished, top = here
        stats["exhausted"] = False
        try:
            while True:
                p = -1
                if expand:
                    if depth >= limit:
                        frontier += 1
                        if sink is not None:
                            sink.add(tables.image(nodes, crashed, key))
                        expand = False
                    else:
                        if finished:  # the newest delivery at or below top to a finished process
                            p = top
                            while p >= 0 and not finished >> dest[enabled[p]] & 1:
                                p -= 1
                        if p < 0:
                            children = [i for i in enabled if not sleep >> i & 1] if sleep else enabled
                            stack.append([nodes, key, enabled, crashed, children, len(children),
                                          depth, sleep, finished])
                            expand = False
                        elif sleep >> enabled[p] & 1:
                            expand = False  # its one delivery is asleep
                if expand:
                    mid = enabled[p]
                else:  # the next child of the newest frame with one left
                    p = -1
                    while stack and not stack[-1][5]:
                        stack.pop()
                    if not stack:
                        return self.found
                    frame = stack[-1]
                    nodes, key, enabled, crashed, children, i, depth, sleep, finished = frame
                    mid = children[i - 1]
                    frame[5], frame[7] = i - 1, sleep | 1 << mid
                    del path[depth - depth0:]
                # Deliver mid; ``sleep`` is the sleep set plus the children
                # tried so far of the configuration it is delivered at.
                d = dest[mid]
                node = nodes[d]
                new, delta, sent, bites, changed = (steps[mid].get(node)
                                                    or step_of(node, mid, crashed))
                key += delta
                if key in seen:
                    hits += 1
                    expand = False
                    continue
                if configs >= budget:  # refuse the delivery; the next call makes it again
                    if p < 0:
                        frame[5], frame[7] = i, sleep
                    else:
                        self.here = (nodes, key - delta, enabled, crashed, depth, sleep, finished,
                                     top)
                    stats["exhausted"] = True
                    return None
                seen.add(key)
                configs += 1
                if sleep & to[d] and depth + 1 < limit:  # else the same mask, or never used
                    sleep = sleep_of(nodes, crashed, sleep, mid)
                if p < 0:
                    nodes, enabled = nodes.copy(), enabled.copy()
                    enabled.remove(mid)
                else:
                    del enabled[p]
                nodes[d] = new
                if bites:
                    crashed = d
                    enabled = [i for i in enabled if dest[i] != d]
                if sent:
                    enabled += sent if crashed is None else [i for i in sent if dest[i] != crashed]
                top = p - 1 if p >= 0 and not sent and not bites else len(enabled) - 1
                if not finished >> d & 1 and ends[new]:
                    finished |= 1 << d
                depth += 1
                path.append(mid)
                if changed:
                    v = safety(nodes, crashed)
                    if v is not None:
                        return self._violation(v[0])
                expand = bool(enabled)
                if not expand:
                    terminals += 1
                    if sink is not None:
                        sink.add(tables.image(nodes, crashed, key))
                    child = tables.configuration(nodes, crashed)
                    status = STATUS_COMPLETE if child.all_alive_decided() else STATUS_STUCK
                    v = terminal_violation(child, values, status)
                    if v is not None:
                        return self._violation(v[0])
        finally:
            stats.update(zip(_COUNTS, (configs, hits, terminals, frontier)))
            stats["truncated"] = stats["exhausted"] or frontier > 0

    def _violation(self, prop: str) -> tuple:
        self.stack.clear()
        self.found = prop, _events(self.prefix + [self.tables.msgs[i] for i in self.path])
        return self.found


def _new_stats(budget: int) -> dict:
    # truncated: some configuration was left unexpanded; exhausted: the budget ran out
    return {**dict.fromkeys(_COUNTS, 0), "truncated": False, "exhausted": False, "budget": budget}


def _start(base: Scenario) -> Configuration:
    return new_configuration(base.n, list(base.values), crash=base.crash, rules=base.rules,
                             final_quorum=base.final_quorum)[0]


def _explore_chunk(args, tables: Optional[_Tables] = None, collect: bool = False,
                   cfg0: Optional[Configuration] = None) -> dict:
    """Search one chunk: a ``_dfs`` from the start configuration ``cfg0``
    with the roots ``positions``, indices into its send-ordered ``enabled``
    list, on the search's interned states ``tables``; a pool job, which
    gets neither, builds its own.  The terminal and
    frontier images are collected, as ``reached``, only if ``collect``."""
    base, bounds, positions, budget = args
    stats = _new_stats(budget)
    sink = set() if collect else None
    found = _dfs(_start(base) if cfg0 is None else cfg0, base, bounds, [], stats, set(),
                 _Tables(base) if tables is None else tables, sink, positions)
    return {"stats": {k: stats[k] for k in _COUNTS},
            "truncated": stats["truncated"], "violation": found, "reached": sink}


def explore(
    scenario: Scenario,
    bounds: ExploreBounds = ExploreBounds(),
    chunks: int = 1,
    workers: int = 1,
    reach_sink: Optional[set] = None,
) -> CheckVerdict:
    """Enumerate delivery interleavings and check every reached configuration.

    The search stores at most ``bounds.max_configs`` configurations.  With
    ``chunks > 1`` the search space is split by the first delivery and
    the chunks are explored independently (optionally by a process pool);
    the reported verdict is the one a sequential chunk-by-chunk run would
    give, so the worker count never changes the outcome.  A chunk is one
    search whose bottom frame is the start configuration, unstored, with
    the chunk's roots as its children, so depth counts from the start in
    every chunk.  Each chunk gets an equal share of ``max_configs``, at
    least one configuration (more chunks than ``max_configs`` is an
    error), and its own seen set, so a state reachable from several chunks
    is counted once per chunk: the ``configs`` and ``terminals`` counts
    rise with ``chunks``, while the set of reached states collected in
    ``reach_sink``, as configuration images, does not change unless a
    chunk runs out of budget.

    Two reductions cut the search (see ``_dfs``).  Sleep sets skip
    deliveries that would reach an already stored configuration: two
    deliveries to different processes are independent, and two to the
    same process are independent at a configuration where they commute,
    which the search reads off its transition table.  Where a
    delivery to a finished process, one that has decided and sent its
    second proposal, is enabled, only that delivery is made: it commutes
    with every other delivery and no property can see it.  The search
    reaches the terminal configurations of the unreduced search and finds
    a violation iff that search does, but stores fewer configurations
    once some process has finished.  ``stats["dedupe_hits"]`` counts the
    deliveries that reached a stored configuration, so ``configs +
    dedupe_hits`` is the number of deliveries made.

    The search runs on interned states (see ``_Tables``), and its dedupe
    key is exact: two configurations share a key iff they have the same
    image.  One set of tables and one start configuration serve every
    chunk searched in this process, a pool job builds its own, and
    no table outlives the call, because a process image leaves out the
    rules and the final quorum.
    """
    scenario.validate()
    bounds.validate()
    if chunks < 1:
        raise ConfigError("chunks must be positive")
    if workers < 1:
        raise ConfigError("workers must be positive")
    if chunks > bounds.max_configs:
        raise ConfigError("chunks must not exceed max_configs")
    cfg0 = _start(scenario)  # one start configuration for every chunk searched here
    tables = _Tables(scenario)  # this call's interned states: one scenario, never kept

    if chunks <= 1:
        stats = _new_stats(bounds.max_configs)
        found = _dfs(cfg0, scenario, bounds, [], stats, set(), tables, sink=reach_sink)
        return _verdict_from(scenario, found, [stats], stats["truncated"])

    roots = range(len(cfg0.enabled))[::-1]  # positions, newest first
    groups = [roots[i::chunks] for i in range(chunks)]
    groups = [g for g in groups if g]
    budget = bounds.max_configs // len(groups)
    jobs = [(scenario, bounds, g, budget) for g in groups]
    chunk = partial(_explore_chunk, collect=reach_sink is not None)
    if workers <= 1:
        results = [chunk(job, tables, cfg0=cfg0) for job in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk, jobs))
    all_stats = [r["stats"] for r in results]
    if reach_sink is not None:
        for r in results:
            reach_sink |= r["reached"]
    found = next((r["violation"] for r in results if r["violation"] is not None), None)
    return _verdict_from(scenario, found, all_stats, any(r["truncated"] for r in results))


def _verdict_from(scenario, found, stats_list, truncated) -> CheckVerdict:
    stats = {k: sum(s.get(k, 0) for s in stats_list) for k in _COUNTS}
    if found is not None:
        # The search has no event bound, so the witness's ``max_events`` is
        # raised, if need be, past its delivery count: the script ends it.
        prop, events = found
        witness = scripted(replace(scenario, max_events=max(scenario.max_events,
                                                            len(events) + 1)), events)
        trace = _failing_trace(witness, prop, "the witness")
        return CheckVerdict(OUTCOME_COUNTEREXAMPLE, prop, trace, stats)
    stats["exhaustive"] = not truncated
    return CheckVerdict(OUTCOME_BOUND if truncated else OUTCOME_ALL_PASS, stats=stats)


# ---------------------------------------------------------------------------
# Seeded schedule fuzzing over the crash grid
# ---------------------------------------------------------------------------


def _values_for(base: Scenario, seed: int, mode: str) -> tuple:
    if mode == "fixed":
        return base.values
    # Deterministic single-bit patterns so decided vectors can feed the
    # binary interpretation layer; the multiplier spreads seeds over
    # patterns including unanimity and near-ties.
    pattern = (seed * 2654435761 + 97) & 0xFFFFFFFF
    return tuple(bit_values(base.n, pattern >> 3))


def _fuzz_one(base: Scenario, cells: list, seed: int, values_mode: str):
    cell = cells[seed % len(cells)]
    scenario = base.with_crash(cell).with_seed(seed)
    if values_mode != "fixed":
        scenario = replace(scenario, values=_values_for(base, seed, values_mode))
    cfg, _, status = run_raw(scenario, record_events=False)
    report = report_for_config(cfg, list(scenario.values), status)
    # Equal decided vectors share one object, the inputs' own tuple where
    # they are decided in full: ``collect_traces`` keeps every run's vectors.
    values = tuple(scenario.values)
    shared = {values: values}
    decided = tuple([shared.setdefault(p.decided, p.decided) for p in cfg.processes])
    return scenario, report, decided


def _fuzz_outcomes(base: Scenario, cells: list, seed_count: int, values_mode: str, workers: int):
    """Yield ``_fuzz_one``'s result for seeds 0..seed_count-1 in seed order,
    computed here or, with ``workers > 1``, by a process pool."""
    run_seed = partial(_fuzz_one, base, cells, values_mode=values_mode)
    if workers <= 1:
        yield from map(run_seed, range(seed_count))
        return
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(run_seed, range(seed_count), chunksize=64)
    finally:
        pool.shutdown(cancel_futures=True)


def fuzz(
    base: Scenario,
    seed_count: int,
    values_mode: str = "bits",
    exhaustive_subsets: bool = False,
    stop_on_first: bool = False,
    workers: int = 1,
    collect_traces: Optional[list] = None,
) -> CheckVerdict:
    """Run seeds 0..seed_count-1, spread round-robin over the crash grid.

    Every run is checked against all properties.  The reported
    counterexample is always the lowest failing seed, so the aggregate is
    a pure function of (base scenario, seed_count).  ``collect_traces``
    optionally receives ``(scenario, decided vectors)`` of every
    agreement-passing run for downstream checks (e.g. the binary
    interpretation layer).
    """
    if seed_count < 1:
        raise ConfigError("seed count must be positive")
    if workers < 1:
        raise ConfigError("workers must be positive")
    cells = crash_grid(base.n, exhaustive_subsets)
    stats = {
        "runs": 0,
        "cells": len(cells),
        "decided_runs": 0,
        **{f"fail_{name}": 0 for name in PROPERTY_NAMES},
    }
    first_failure = None

    def account(seed, scenario, report, decided):
        stats["runs"] += 1
        if report.termination.ok:
            stats["decided_runs"] += 1
        for name in PROPERTY_NAMES:
            if not report.check(name).ok:
                stats[f"fail_{name}"] += 1
        if report.agreement.ok and collect_traces is not None:
            collect_traces.append((scenario, decided))
        if not report.all_ok:
            return seed, report.failures()[0], scenario
        return None

    outcomes = _fuzz_outcomes(base, cells, seed_count, values_mode, workers)
    for seed, (scenario, report, decided) in enumerate(outcomes):
        failure = account(seed, scenario, report, decided)
        if failure is not None and first_failure is None:
            first_failure = failure
            if stop_on_first:
                outcomes.close()  # cancels the seeds a pool has not started
                break

    if first_failure is None:
        return CheckVerdict(OUTCOME_ALL_PASS, stats=stats)
    seed, prop, scenario = first_failure
    # A deterministic re-run, now recording events.
    trace = _failing_trace(scenario, prop, f"the re-run of seed {seed}")
    return CheckVerdict(OUTCOME_COUNTEREXAMPLE, prop, trace, stats, failing_seed=seed)


# ---------------------------------------------------------------------------
# Trace minimization
# ---------------------------------------------------------------------------


def minimize(trace: Trace, max_replays: int = 4000) -> Trace:
    """Shrink a failing trace while preserving its (first) failed property.

    Classic chunk-deletion reduction over the delivery list: a candidate
    survives only if it still replays cleanly and still fails the same
    property.  The result is never longer than the input.
    """
    report = check_properties(trace)
    failures = report.failures()
    if not failures:
        raise ConfigError("minimize: the input trace passes all properties")
    prop = failures[0]
    events = [ev for ev in trace.events if isinstance(ev, Deliver)]
    replays = 0
    # check_properties has validated the trace's scenario with its whole
    # script, and a candidate's script is part of it: so a candidate runs
    # the header without a script, whose check is a few field tests, and
    # gets its script through the scheduler.
    bare = replace(trace.scenario, scheduler=SchedulerSpec())
    values = list(bare.values)

    def still_fails(candidate: list) -> bool:
        nonlocal replays
        replays += 1
        script = ScriptedScheduler([("deliver_seq", ev.sender, ev.seq, ev.dest)
                                    for ev in candidate])
        try:
            cfg, _, status = run_raw(bare, script, record_events=False)
        except ConsensusLabError:
            return False  # deletion broke causality; not a valid shrink
        return not report_for_config(cfg, values, status).check(prop).ok

    # Without a crash, the first delivery a candidate drops stays enabled,
    # so every candidate ends in script_end, which passes termination by
    # definition: a crash-free termination witness cannot shrink.  With a
    # crash the dropped deliveries may all go to the victim, and it can.
    shrinkable = prop != TERMINATION or trace.scenario.crash is not None
    granularity = 2
    while shrinkable and len(events) >= 2 and replays < max_replays:
        chunk = max(1, len(events) // granularity)
        shrunk = False
        start = 0
        while start < len(events) and replays < max_replays:
            candidate = events[:start] + events[start + chunk :]
            if candidate and still_fails(candidate):
                events = candidate
                shrunk = True
            else:
                start += chunk
        if shrunk:
            granularity = max(granularity - 1, 2)
        elif chunk == 1:
            break
        else:
            granularity = min(len(events), granularity * 2)

    return _failing_trace(scripted(trace.scenario, events), prop, "the minimized trace")
