"""A literal round loop: the reference the engine's shared work is checked against.

``Simulation`` shares work across processes: one common fold per round, one
fold per distinct inbox, one reading per fold, compute classes, shared
frozenset queues and grouped sends. ``Reference`` shares none of it. Each
round it runs the five phases process by process, straight from the module
docstrings:

1. ADVERSARY: the schedule's faulty set of the round;
2. ORACLE: a cure notice to each process faulty in the round before and
   correct in this one, with the start of its faulty span under FFA (the
   first of the rounds back from the round before in which it is faulty),
   none under BFA, and no notice at all under NFA;
3. SEND: each correct process's whole queue to every process, and each
   faulty one's dictated (receiver, message) pairs;
4. RECEIVE: each process folds its own receipts, by (sender, message) in
   message order, into its own fresh ``Tallies``, so no two processes share
   a fold and each takes its own reading;
5. COMPUTE: one ``compute_phase`` per correct process, then its scheduled
   broadcast calls queued (``queue_broadcasts``), and ``corrupt_state`` per
   faulty process.

The strategies see the same ``Observation`` the engine gives them: the live
states, and each process's own fold.
"""

from __future__ import annotations

from mbbc.adversary import Observation, build_strategy
from mbbc.messages import TO_ALL, ProtocolMessage
from mbbc.model import OracleKind
from mbbc.protocol import (
    Tallies,
    compute_phase,
    init_state,
    on_cured,
    queue_broadcasts,
    receive,
    send_phase,
)
from mbbc.scenario import ScenarioConfig


class Reference:
    """A scenario stepped one round at a time, with no work shared between processes."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.schedule = config.resolved_schedule()
        self.strategy = build_strategy(config)
        self.variant = config.variant_spec()
        self.states = [init_state() for _ in range(config.n)]
        self.round = 0

    def step(self) -> tuple[list[tuple[int, ProtocolMessage, int]], dict[int, list[tuple[int, bytes]]]]:
        """Run the next round. Returns its sends as (sender, message,
        receiver), duplicates kept, and each correct process's deliveries, in
        the order ``compute_phase`` returned them."""
        cfg, sched, states = self.config, self.schedule, self.states
        n = cfg.n
        r = self.round = self.round + 1
        faulty = sched.faulty_set(r)

        oracle = cfg.setting.oracle
        if oracle is not OracleKind.NFA and r > 1:
            for p in range(n):
                if sched.is_faulty(p, r - 1) and not sched.is_faulty(p, r):
                    since = r - 1
                    while since > 1 and sched.is_faulty(p, since - 1):
                        since -= 1
                    on_cured(states[p], since if oracle is OracleKind.FFA else None)

        obs = Observation(schedule=sched, states=states)
        sends: list[tuple[int, ProtocolMessage, int]] = []
        for p in range(n):
            if p in faulty:
                for q, msg in self.strategy.dictate_sends(p, r, obs):
                    sends += [(p, msg, q) for q in (range(n) if q == TO_ALL else (q,))]
            else:
                sends += [(p, msg, q) for msg in send_phase(states[p]) for q in range(n)]

        receipts: list[list[tuple[int, ProtocolMessage]]] = [[] for _ in range(n)]
        for sender, msg, q in sorted(sends, key=lambda send: (send[0], send[1].sort_key())):
            receipts[q].append((sender, msg))
        obs.tallies = [receive(Tallies(), inbox) for inbox in receipts]

        delivered: dict[int, list[tuple[int, bytes]]] = {}
        for p in range(n):
            if p in faulty:
                states[p] = self.strategy.corrupt_state(p, r, obs)
            else:
                delivered[p] = compute_phase(states[p], obs.tallies[p], self.variant, n)
                queue_broadcasts(states[p], p, [b.payload for b in cfg.broadcasts
                                                if (b.source, b.round) == (p, r)])
        return sends, delivered
