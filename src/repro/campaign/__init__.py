"""Fault-tolerant campaign runner (DESIGN.md §14).

Shard a whole experiment matrix — workloads × models × scales × seeds ×
config sweeps — into a durable, crash-safe job graph over the
content-addressed result cache.  Workers claim jobs through expiring
leases, heartbeat while simulating, resume reclaimed jobs from their
checkpoint slots, and park poison jobs in quarantine; every event is an
append to a checksummed journal, so killing any process at any point
loses at most the work since the last checkpoint.
"""

from repro.campaign.engine import (Campaign, CampaignError,
                                   CampaignRunReport, LocalBackend,
                                   campaign_complete, job_state,
                                   list_campaigns, run_campaign, run_worker,
                                   worker_main)
from repro.campaign.journal import (JobLog, JournalReadResult, JournalTail,
                                    append_record, fold_journal,
                                    read_journal)
from repro.campaign.lease import Heartbeat, Lease, LeaseManager
from repro.campaign.spec import MatrixSpec
from repro.campaign.status import (CampaignStatus, JobStatus,
                                   aggregate_results, campaign_status,
                                   render_status)

__all__ = [
    "Campaign", "CampaignError", "CampaignRunReport", "CampaignStatus",
    "Heartbeat", "JobLog", "JobStatus", "JournalReadResult", "JournalTail",
    "Lease", "LeaseManager",
    "LocalBackend", "MatrixSpec", "aggregate_results", "append_record",
    "campaign_complete", "campaign_status", "fold_journal", "job_state",
    "list_campaigns", "read_journal", "render_status", "run_campaign",
    "run_worker", "worker_main",
]
