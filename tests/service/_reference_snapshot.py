"""Test oracle: the whole-campaign snapshot a commit used to serialise.

Before the checkpoint became an append-only log plus a small head,
``_Campaign._commit_checkpoint`` rebuilt the *entire*
:class:`~repro.service.campaign.CampaignCheckpoint` at every batch
boundary — every terminal record ``to_json``'d again, the whole
completion order, every part's whole ledger — and the store kept the
bytes.  That builder is :func:`reference_snapshot`: O(campaign) per
commit and obviously right, which is what an oracle should be; nothing
under ``src/`` imports it.

The store must fold its log and head back into exactly this, at every
commit and after any damage it survives: compare ``to_bytes()`` (an
un-set residual norm is NaN, which never equals itself).
"""

from repro.service import CampaignCheckpoint


def _part_json(part) -> dict:
    """A part's checkpoint blob with its ledger in it — the whole of
    what ``restore`` reads."""
    blob = part.to_json()
    if hasattr(part, "LEDGER"):
        blob[part.LEDGER] = [list(row) for row in getattr(part, part.LEDGER)]
    return blob


def reference_snapshot(campaign) -> CampaignCheckpoint:
    """The recovery point of ``campaign`` (a ``_Campaign``) as of the
    commit it has just made."""
    records = campaign.records
    return CampaignCheckpoint(
        time_s=campaign.now,
        arrivals_consumed=campaign.arrivals_consumed,
        next_batch_id=campaign.batch_seq,
        next_req_seq=len(records),
        makespan_s=campaign.makespan,
        checkpoints_committed=campaign.checkpoints_committed,
        completion_order=list(campaign.completion_order),
        terminal=[r.to_json() for r in records if r.terminal],
        pending=[r.to_json() for r in records if not r.terminal],
        workers=[w.state_json() for w in campaign.workers],
        parts={name: _part_json(part) for name, part in campaign.parts.items()},
    )
