"""Runtime-checkable MESI and locking invariants.

``verify_system`` audits a :class:`~repro.system.simulator.System`
mid-run or post-run and returns a list of violation strings (empty =
healthy).  Checked invariants:

1. **Single writer** — at most one core holds a line in M/E.
2. **Writer exclusivity** — if a core holds M/E, no other core holds
   the line in any valid state.
3. **Directory agreement** — every core-side valid line is tracked by a
   directory entry naming that core.  Under ``strict_directory`` the
   agreement is exact — including lines with an in-flight transaction:
   the directory records a requester in ``holders`` *before* sending
   the grant and removes invalidated sharers only on their acks, so a
   cached copy unknown to the directory is drift at any point in the
   run, not a transient.
4. **Inclusion** — every L1-resident line is L2-resident.
5. **Lock residency** — every line locked by a core's AQ is present in
   that core's L1 with write permission, at the recorded set/way.
6. **Queue sanity** — per core: LQ/SQ/AQ entries are in sequence order
   and AQ occupancy within capacity.
6b. **Release order** — the program-ordered mirror of unperformed
   atomics (the versioned policy's acquire/retire watermark) holds
   exactly the live atomic SQ entries, in sequence order, none
   squashed; the published release version never runs ahead of the
   atomics that have actually left the SQ.
7. **LSQ indexes** — the LQ/SQ word and line buckets exactly mirror
   the queues they accelerate (``audit_indexes`` on each queue).
7b. **Directory tables** — the directory's per-line map and per-set
   residency lists mirror each other, no set holds more than ``ways``
   entries, and owner/sharer encodings name existing cores.
8. **Quiesced-only** (``quiesced=True``; sound only once the event
   queue has drained empty) — no pending directory transactions, no
   directory-recorded holder without a cached copy (the *reverse* of
   check 3), and no deferred coherence request stranded on an unlocked
   line.

Tests sprinkle these checks through long contended runs, and the
observability layer (:mod:`repro.obs`) samples them periodically
during ``System.run``; they are the simulator's equivalent of the
protocol assertions a SLICC model would carry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.mem.coherence import MESIState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.simulator import System


def verify_system(
    system: "System",
    strict_directory: bool = False,
    quiesced: bool = False,
) -> List[str]:
    """Audit coherence/locking invariants; returns violation messages."""
    violations: List[str] = []
    violations.extend(_check_single_writer(system))
    violations.extend(_check_inclusion(system))
    violations.extend(_check_locks(system))
    violations.extend(_check_queues(system))
    violations.extend(_check_release_order(system))
    violations.extend(_check_directory(system, strict=strict_directory))
    violations.extend(_check_directory_tables(system))
    violations.extend(_check_lsq_indexes(system))
    violations.extend(_check_parked(system))
    if quiesced:
        violations.extend(_check_quiesced(system))
    return violations


def assert_coherent(system: "System") -> None:
    """Raise AssertionError with details if any invariant is violated."""
    violations = verify_system(system)
    assert not violations, "coherence invariants violated:\n  " + "\n  ".join(
        violations
    )


def _core_states(system: "System"):
    for core in system.cores:
        yield core, core.hierarchy


def _check_parked(system: "System") -> List[str]:
    """Spin fast-forward park-state invariants (see repro.uarch.spinff).

    A parked core is frozen mid-spin: it must have no in-flight memory
    traffic (parking requires an idle hierarchy and stays legal because
    every externally-triggered transition goes through the network), a
    registered wake watcher (otherwise a message could land while the
    core is absent from the calendar), and every watched spin line
    still resident — the spin loop's loads hit those lines, and the
    first coherence message that would take one away is exactly what
    un-parks the core before the message is delivered.
    """
    violations = []
    watchers = system.network._watchers
    for core, hierarchy in _core_states(system):
        if not core.parked:
            continue
        if not hierarchy.can_park():
            violations.append(
                f"core {core.core_id}: parked with in-flight memory traffic"
            )
        if watchers is None or core.core_id not in watchers:
            violations.append(
                f"core {core.core_id}: parked without a wake watcher"
            )
        for line in sorted(hierarchy.spin_watch):
            if hierarchy.state_of(line) is MESIState.INVALID:
                violations.append(
                    f"core {core.core_id}: parked spinning on "
                    f"non-resident line {line:#x}"
                )
    return violations


def _check_single_writer(system: "System") -> List[str]:
    violations = []
    holders: dict[int, list[tuple[int, MESIState]]] = {}
    for core, hierarchy in _core_states(system):
        for line, state in hierarchy._state.items():
            holders.setdefault(line, []).append((core.core_id, state))
    for line, entries in holders.items():
        writers = [cid for cid, state in entries if state.writable]
        if len(writers) > 1:
            violations.append(
                f"line {line:#x}: multiple writable copies at cores {writers}"
            )
        elif writers and len(entries) > 1:
            others = [cid for cid, state in entries if not state.writable]
            violations.append(
                f"line {line:#x}: writer core {writers[0]} coexists with "
                f"readers {others}"
            )
    return violations


def _check_inclusion(system: "System") -> List[str]:
    violations = []
    for core, hierarchy in _core_states(system):
        for line in list(hierarchy._l1._where):
            if hierarchy._l2.lookup(line, touch=False) is None:
                violations.append(
                    f"core {core.core_id}: line {line:#x} in L1 but not L2"
                )
            if hierarchy.state_of(line) is MESIState.INVALID:
                violations.append(
                    f"core {core.core_id}: line {line:#x} resident but INVALID"
                )
    return violations


def _check_locks(system: "System") -> List[str]:
    violations = []
    for core, hierarchy in _core_states(system):
        for entry in core.aq:
            if not entry.locked:
                continue
            line = entry.line
            location = hierarchy.l1_location(line)
            if location is None:
                violations.append(
                    f"core {core.core_id}: locked line {line:#x} not in L1"
                )
                continue
            if location != (entry.set_index, entry.way):
                violations.append(
                    f"core {core.core_id}: locked line {line:#x} moved from "
                    f"recorded s{entry.set_index}w{entry.way} to {location}"
                )
            if not hierarchy.has_write_permission(line):
                violations.append(
                    f"core {core.core_id}: locked line {line:#x} without "
                    f"write permission ({hierarchy.state_of(line).value})"
                )
    return violations


def _check_queues(system: "System") -> List[str]:
    violations = []
    for core in system.cores:
        for name, queue in (("LQ", core.lq), ("SQ", core.sq)):
            seqs = [instr.seq for instr in queue]
            if seqs != sorted(seqs):
                violations.append(f"core {core.core_id}: {name} out of order")
        aq_seqs = [entry.seq for entry in core.aq]
        if aq_seqs != sorted(aq_seqs):
            violations.append(f"core {core.core_id}: AQ out of order")
        if len(core.aq) > core.aq.capacity:
            violations.append(f"core {core.core_id}: AQ over capacity")
    return violations


def _check_release_order(system: "System") -> List[str]:
    """The versioned policy's watermark mirrors the SQ's atomics exactly.

    ``core._atomics_sq`` is maintained for every policy (dispatch
    appends, perform pops, squash trims the suffix), and the versioned
    gates read only its front — so any drift between it and the real
    store queue silently weakens or deadlocks the ordering.  Audited
    for all policies: the deque must hold exactly the live atomic SQ
    entries, in program order, none squashed.
    """
    from repro.uarch.dynins import InstrClass

    violations = []
    for core in system.cores:
        mirror = list(core._atomics_sq)
        seqs = [instr.seq for instr in mirror]
        if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
            violations.append(
                f"core {core.core_id}: release mirror out of program order"
            )
        for instr in mirror:
            if instr.squashed:
                violations.append(
                    f"core {core.core_id}: squashed atomic seq={instr.seq} "
                    "still in release mirror"
                )
            if instr.klass is not InstrClass.ATOMIC:
                violations.append(
                    f"core {core.core_id}: non-atomic seq={instr.seq} "
                    "in release mirror"
                )
        sq_atomics = {
            instr.seq
            for instr in core.sq
            if instr.klass is InstrClass.ATOMIC and not instr.squashed
        }
        if set(seqs) != sq_atomics:
            violations.append(
                f"core {core.core_id}: release mirror {sorted(set(seqs))} "
                f"!= SQ atomics {sorted(sq_atomics)}"
            )
        if core.release_version < 0:
            violations.append(
                f"core {core.core_id}: negative release version "
                f"{core.release_version}"
            )
    return violations


def _check_directory(system: "System", strict: bool) -> List[str]:
    """Core-side valid lines must be known to the directory.

    The default check only flags cores holding lines the directory
    attributes to nobody.  ``strict`` requires exact forward agreement
    — *including* lines with an in-flight transaction.  That used to be
    exempted ("directory runs ahead of the caches"), which made the
    strict path vacuous exactly where drift hides: under contention
    most hot lines have a transaction open most of the time.  The
    exemption was never needed, because the protocol orders the
    bookkeeping ahead of the messages in the safe direction:

    - ``_complete_request`` records the requester as holder/owner
      *before* posting the grant, so a core can never install a copy
      the directory does not already attribute to it;
    - invalidated sharers stay in ``holders`` until their INV acks
      arrive, so a still-cached (deferred or in-flight) copy is always
      attributed;
    - ownership moves at transaction completion, before the new owner
      can write, so ``writable`` implies directory owner at any event
      boundary.

    The remaining message-in-flight direction (directory records a
    holder whose copy is gone — PutLine in flight) is only checkable
    once the queue drains; see ``_check_quiesced``.
    """
    violations = []
    directory = system.directory
    for core, hierarchy in _core_states(system):
        for line, state in hierarchy._state.items():
            entry = directory.entry(line)
            if entry is None:
                violations.append(
                    f"core {core.core_id}: line {line:#x} cached "
                    f"({state.value}) but unknown to the directory"
                )
                continue
            if strict:
                if core.core_id not in entry.holders:
                    violations.append(
                        f"core {core.core_id}: line {line:#x} cached but "
                        f"directory lists holders {sorted(entry.holders)}"
                        + (
                            f" (pending {entry.pending.kind})"
                            if entry.pending is not None
                            else ""
                        )
                    )
                if state.writable and entry.owner != core.core_id:
                    violations.append(
                        f"core {core.core_id}: line {line:#x} writable but "
                        f"directory owner is {entry.owner}"
                    )
    return violations


def _check_directory_tables(system: "System") -> List[str]:
    """The directory's line map and set lists must agree.

    Every entry lives in two places — the per-line map (``_entries``)
    and its set's residency list (``_sets``, which victim selection
    walks) — so drift between them is silent corruption the protocol
    checks above cannot see (they read only through the line map).
    Checks: each mapped line is in its set's list, each listed entry is
    the one the line map owns, sets stay within ``ways``, and owner and
    sharer bits stay below ``num_cores``.
    """
    violations = []
    directory = system.directory
    num_cores = len(system.cores)
    entries = directory._entries
    for line, entry in entries.items():
        if entry not in directory._sets.get(directory._set_of(line), ()):
            violations.append(
                f"directory: line {line:#x} missing from its set's "
                f"residency list"
            )
        if entry.sharers >> num_cores:
            violations.append(
                f"directory: line {line:#x} sharer mask {entry.sharers:#x} "
                f"names cores >= {num_cores}"
            )
        if entry.owner >= num_cores:
            violations.append(
                f"directory: line {line:#x} owner {entry.owner} "
                f">= {num_cores}"
            )
    for set_index, resident in directory._sets.items():
        if len(resident) > directory._ways:
            violations.append(
                f"directory: set {set_index} holds {len(resident)} entries "
                f"(> {directory._ways} ways)"
            )
        for entry in resident:
            if entries.get(entry.line) is not entry:
                violations.append(
                    f"directory: set {set_index} lists an entry for "
                    f"{entry.line:#x} the line map does not own"
                )
    return violations


def _check_lsq_indexes(system: "System") -> List[str]:
    """The LSQ's redundant buckets must exactly mirror their queues."""
    violations = []
    for core in system.cores:
        for problems in (core.lq.audit_indexes(), core.sq.audit_indexes()):
            violations.extend(
                f"core {core.core_id}: {problem}" for problem in problems
            )
    return violations


def _check_quiesced(system: "System") -> List[str]:
    """Checks that are only sound once the event queue drained empty.

    With no messages in flight: every directory transaction must have
    closed, every recorded holder must actually cache its line, and
    every deferred coherence request must have been replayed (the lock
    that deferred it cannot outlive the run).
    """
    violations = []
    directory = system.directory
    pending = directory.pending_transactions
    if pending:
        violations.append(
            f"directory: {pending} transaction(s) still pending at quiesce"
        )
    num_cores = len(system.cores)
    for line, entry in directory.entries():
        for core_id in sorted(entry.holders):
            if core_id >= num_cores:
                continue  # pragma: no cover - defensive
            state = system.cores[core_id].hierarchy.state_of(line)
            if state is MESIState.INVALID:
                violations.append(
                    f"directory: core {core_id} recorded as holder of "
                    f"{line:#x} but caches nothing"
                )
    for core, hierarchy in _core_states(system):
        locked = core.aq.locked_lines()
        for line, count in sorted(hierarchy.deferred_lines().items()):
            if line not in locked:
                violations.append(
                    f"core {core.core_id}: {count} deferred request(s) "
                    f"stranded on unlocked line {line:#x}"
                )
    return violations
