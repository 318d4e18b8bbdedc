"""Live session migration between simulation workers.

A migration moves a running :class:`~repro.fleet.worker.SessionSim` from
one worker to another with provable restore-at-T determinism, riding the
same checksummed :class:`~repro.recovery.Snapshot` machinery the
device-level recovery layer uses:

1. **Capture** — the source serializes the session's dynamic state into a
   ``Snapshot`` whose ``recipe`` is the session's immutable
   :meth:`~repro.fleet.arrivals.SessionSpec.recipe`.
2. **Transfer** — the snapshot crosses the worker boundary as canonical
   JSON bytes; :meth:`Snapshot.from_json` checksum-verifies them, so a
   truncated or bit-flipped transfer raises
   :class:`~repro.errors.SnapshotCorruptError` instead of silently
   corrupting the target.
3. **Restore + verify** — the target rebuilds the session from the
   recipe, applies the state, recaptures and ``verify_against``-checks
   the recapture, proving restore-at-T produced byte-identical state.
4. **Adopt** — the rebuilt session joins the target worker.

Because :class:`SessionSim` advances in whole session-local quanta with
counter-based jitter, the migrated session's every subsequent quantum is
bit-identical to the run that never moved — the property
``tests/test_fleet_service.py`` proves end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import FleetError
from repro.fleet.arrivals import SessionSpec
from repro.fleet.worker import SessionSim, SimWorker
from repro.recovery.snapshot import Snapshot

#: ``recipe["kind"]`` stamped on session snapshots, so a fleet snapshot
#: can never be confused with a device-level emulator snapshot.
SESSION_SNAPSHOT_KIND = "fleet-session"


@dataclass(frozen=True)
class MigrationRecord:
    """One completed migration, for the service's audit trail."""

    session_id: str
    source: str
    target: str
    at_ms: float
    reason: str
    digest: str
    #: Size of the canonical-JSON wire image that crossed the boundary.
    wire_bytes: int = 0


def capture_session(session: SessionSim) -> Snapshot:
    """Checkpoint one session: dynamic state + identity recipe."""
    recipe = dict(session.spec.recipe())
    recipe["kind"] = SESSION_SNAPSHOT_KIND
    return Snapshot(session.snapshot_state(), recipe=recipe)


def restore_session(snapshot: Snapshot) -> SessionSim:
    """Rebuild a session from a (verified) snapshot and prove the restore.

    The session is reconstructed from the recipe, the captured state is
    applied, and a recapture is verified against the original — any
    divergence raises :class:`~repro.errors.SnapshotMismatchError` naming
    the first differing key, exactly like device-level replay.
    """
    if snapshot.recipe.get("kind") != SESSION_SNAPSHOT_KIND:
        raise FleetError(
            f"snapshot recipe kind {snapshot.recipe.get('kind')!r} is not a "
            f"fleet session snapshot"
        )
    spec = SessionSpec.from_recipe(snapshot.recipe)
    session = SessionSim(spec, started_at=float(snapshot.state["started_at"]))
    session.restore_state(snapshot.state)
    recapture = Snapshot(session.snapshot_state(), recipe=dict(snapshot.recipe))
    snapshot.verify_against(recapture)
    return session


def migrate_session(
    session_id: str,
    source: SimWorker,
    target: SimWorker,
    reason: str = "rebalance",
    wire: Optional[bytes] = None,
) -> MigrationRecord:
    """Move one live session from ``source`` to ``target``.

    The state crosses the boundary as checksummed canonical-JSON bytes
    (``wire`` lets tests inject corrupted payloads). On any failure the
    session is still owned by exactly one worker: release happens only
    after the wire image is built, and adopt failures put it back.
    """
    if source is target:
        raise FleetError(f"cannot migrate {session_id!r} onto its own worker")
    if not target.alive:
        raise FleetError(
            f"migration target {target.name!r} is {target.state}"
        )
    session = source.sessions.get(session_id)
    if session is None:
        raise FleetError(f"worker {source.name!r} does not host {session_id!r}")
    source.settle(session)
    snapshot = capture_session(session)
    payload = wire if wire is not None else snapshot.to_json().encode("utf-8")
    received = Snapshot.from_json(payload.decode("utf-8"))
    rebuilt = restore_session(received)
    source.release(session_id)
    try:
        target.adopt(rebuilt)
    except FleetError:
        source.adopt(session)  # roll back: the source still has the original
        raise
    return MigrationRecord(
        session_id=session_id,
        source=source.name,
        target=target.name,
        at_ms=source.clock.now,
        reason=reason,
        digest=snapshot.digest(),
        wire_bytes=len(payload),
    )
