"""Campaign progress rendering: store contents + telemetry events.

``repro-power campaign status`` is read-only and safe to run while a
campaign is live: it opens the store as a reader (no lock, no
truncation), indexes the results log once for the durable facts
(stored result records, quarantine records), and reads the campaign's
telemetry directory -- when present -- for the protocol's event stream
(``cell_leased`` / ``lease_expired`` / ``cell_quarantined`` /
``campaign_resumed``), giving a liveness view on top of the durable
counts.
"""

from __future__ import annotations

import os
from typing import Mapping

from repro.campaign.store import ResultStore, plan_digests
from repro.errors import TelemetryError
from repro.exec.plan import RunPlan
from repro.telemetry.exporters import EVENTS_FILENAME
from repro.telemetry.report import load_events

#: Event kinds the campaign protocol emits.
CAMPAIGN_EVENT_KINDS = (
    "campaign_resumed", "cell_leased", "lease_expired", "cell_quarantined",
)

#: How many recent protocol events the rendering shows.
_RECENT = 8


def campaign_status(
    store_root: str | os.PathLike,
    telemetry_dir: str | os.PathLike | None = None,
    plan: RunPlan | None = None,
) -> dict:
    """A JSON-safe snapshot of a campaign's progress.

    With ``plan``, cells are matched against the store by digest so the
    snapshot carries exact done/quarantined/remaining counts; without
    it, the store-wide object and quarantine counts stand alone.
    Read-only: a directory that is not a store raises
    :class:`~repro.errors.CampaignError` instead of being initialized.
    """
    with ResultStore(store_root, create=False) as store:
        return _snapshot(store, telemetry_dir, plan)


def _snapshot(
    store: ResultStore,
    telemetry_dir: str | os.PathLike | None,
    plan: RunPlan | None,
) -> dict:
    telemetry_dir = (
        os.fspath(telemetry_dir)
        if telemetry_dir is not None
        else os.path.join(store.root, "telemetry")
    )
    quarantine = []
    for digest in store.quarantined_digests():
        record = store.quarantine_record(digest) or {}
        quarantine.append({
            "digest": digest,
            "cell": record.get("cell", "?"),
            "attempts": record.get("attempts"),
            "permanent": record.get("permanent"),
            "error": record.get("error", ""),
        })
    try:
        events, _, _ = load_events(
            os.path.join(telemetry_dir, EVENTS_FILENAME), CAMPAIGN_EVENT_KINDS
        )
    except TelemetryError:
        events = []  # no log yet, or an unreadable one
    counts = {kind: 0 for kind in CAMPAIGN_EVENT_KINDS}
    for event in events:
        counts[event["kind"]] += 1
    out: dict = {
        "store": store.root,
        "objects": len(store.object_digests()),
        "quarantined": quarantine,
        "event_counts": counts,
        "recent_events": events[-_RECENT:],
    }
    if plan is not None:
        digests = plan_digests(plan)
        done = sum(1 for digest in digests if store.has(digest))
        quarantined = sum(
            1 for digest in digests
            if store.quarantine_record(digest) is not None
        )
        out["plan"] = {
            "total": len(digests),
            "done": done,
            "quarantined": quarantined,
            "remaining": len(digests) - done - quarantined,
        }
    return out


def _render_event(event: Mapping) -> str:
    kind = event.get("kind")
    t = event.get("time_s", 0.0)
    if kind == "cell_leased":
        return (
            f"  t={t:7.2f}s  leased      {event.get('cell')} "
            f"(worker {event.get('worker')}, attempt {event.get('attempt')})"
        )
    if kind == "lease_expired":
        return (
            f"  t={t:7.2f}s  re-issue    {event.get('cell')} "
            f"[{event.get('reason')}] retry in {event.get('retry_in_s'):.2f}s"
        )
    if kind == "cell_quarantined":
        tag = "permanent" if event.get("permanent") else (
            f"after {event.get('attempts')} attempts"
        )
        return (
            f"  t={t:7.2f}s  QUARANTINE  {event.get('cell')} ({tag}): "
            f"{event.get('error', '')[:60]}"
        )
    if kind == "campaign_resumed":
        return (
            f"  t={t:7.2f}s  resumed     {event.get('cached')} cached, "
            f"{event.get('quarantined')} quarantined of "
            f"{event.get('total')} cells"
        )
    return f"  t={t:7.2f}s  {kind}"


def render_status(data: Mapping) -> str:
    """Human-readable rendering of :func:`campaign_status` output."""
    lines = [
        f"campaign store: {data['store']}",
        f"  result objects: {data['objects']}   "
        f"quarantined: {len(data['quarantined'])}",
    ]
    plan = data.get("plan")
    if plan:
        lines.append(
            f"  plan: {plan['done']}/{plan['total']} done, "
            f"{plan['quarantined']} quarantined, "
            f"{plan['remaining']} remaining"
        )
    counts = data.get("event_counts", {})
    if any(counts.values()):
        lines.append(
            "  events: "
            + "  ".join(
                f"{kind}={counts[kind]}"
                for kind in CAMPAIGN_EVENT_KINDS
                if counts.get(kind)
            )
        )
    if data["quarantined"]:
        lines.append("")
        lines.append("quarantine:")
        for entry in data["quarantined"]:
            tag = "permanent" if entry.get("permanent") else (
                f"{entry.get('attempts')} attempts"
            )
            lines.append(
                f"  {entry['digest'][:12]}  {entry['cell']:28} "
                f"({tag})  {entry.get('error', '')[:50]}"
            )
        lines.append("  (clear with: repro-power campaign retry)")
    recent = data.get("recent_events", [])
    if recent:
        lines.append("")
        lines.append("recent protocol events:")
        lines.extend(_render_event(event) for event in recent)
    return "\n".join(lines)
