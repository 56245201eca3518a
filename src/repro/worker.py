"""``python -m repro worker``: drain coordinator-leased sweep partitions.

A worker is the fleet-mode execution adapter from the outside: it leases
partitions from a coordinator (``python -m repro serve`` --
:mod:`repro.core.coordinator`), re-derives each partition's
:class:`~repro.experiments.sweep.KernelJob` objects from its own registry
(verifying the advertised cache keys, which embed the source fingerprint,
so version skew nacks instead of simulating the wrong thing), and runs
them through an ordinary :class:`ParallelSweepEngine` whose store carries
the coordinator as its remote tier -- results and traces publish through
the exact same write-back path a single-machine ``--remote-cache`` run
uses, which is why fleet results are bit-identical by construction.

One engine drains every partition the worker ever leases, so with
``--jobs > 1`` the :class:`~repro.experiments.adapters.LocalPoolAdapter`
process pool persists across partitions (shut down once, in this
module's ``finally``, via ``engine.close()``) instead of starting anew
for every lease.

Failure contract (mirroring the PR 4 RemoteStore one): the first
coordinator connectivity failure emits one ``RuntimeWarning`` and the
worker finishes its in-flight partition locally, then exits -- computed
results stay safe in its local store tier and the partition's lease
expires on the coordinator, requeueing it for the survivors.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .core.cache import ResultStore
from .core.cache_service import RemoteStore
from .core.coordinator import CoordinatorClient, CoordinatorError

__all__ = ["WorkerReport", "resolve_partition_jobs", "run_worker", "write_report"]


@dataclass
class WorkerReport:
    """What one worker run did, per partition -- serializable for the CI
    exactly-once audit (``--summary``)."""

    worker: str
    coordinator: str
    #: one dict per processed partition: id/experiment/jobs plus the cache
    #: keys of the jobs this worker actually *simulated* (vs recalled)
    partitions: list[dict] = field(default_factory=list)
    acked: int = 0
    #: acks the coordinator rejected because the lease had expired; the
    #: results are in the store regardless (content-addressed, so a
    #: double-completed partition is redundant, never wrong)
    stale_acks: int = 0
    #: partitions nacked because the local job derivation did not match
    #: the advertised cache keys (version skew across the fleet)
    mismatched: int = 0
    #: the coordinator died mid-run and the worker degraded to local-only
    coordinator_lost: bool = False

    def simulated_keys(self) -> list[str]:
        return [key for entry in self.partitions for key in entry["simulated"]]

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "coordinator": self.coordinator,
            "acked": self.acked,
            "stale_acks": self.stale_acks,
            "mismatched": self.mismatched,
            "coordinator_lost": self.coordinator_lost,
            "partitions": self.partitions,
        }


def resolve_partition_jobs(partition: dict):
    """The partition's jobs, re-derived locally -- or None on any mismatch.

    The wire descriptor intentionally carries no machine configuration
    (a :class:`MachineConfig` has no dict-deserializer, and shipping one
    would let a skewed coordinator inject unkeyed work); instead the
    worker recomputes :func:`~repro.experiments.registry.experiment_partitions`
    and trusts it only if the advertised job cache keys match exactly.
    Exploration partitions carry a declarative search-space dict plus point
    ids instead of an experiment name -- same trust model: the jobs are
    re-derived locally from primitive data and the advertised keys (which
    embed the source fingerprint) must match exactly, or the partition is
    nacked.
    """
    from .experiments.registry import ExperimentOptions, experiment_partitions

    space = partition.get("space")
    if isinstance(space, dict):
        from .explore.space import SearchSpace

        points = partition.get("points")
        if not isinstance(points, list):
            return None
        try:
            jobs = SearchSpace.from_dict(space).jobs([int(p) for p in points])
        except (IndexError, KeyError, TypeError, ValueError):
            return None
        if [job.cache_key() for job in jobs] != partition.get("keys"):
            return None
        return jobs

    experiment = partition.get("experiment")
    index = partition.get("index")
    if not isinstance(experiment, str) or not isinstance(index, int):
        return None
    try:
        partitions = experiment_partitions(
            experiment, ExperimentOptions(scale=float(partition.get("scale", 0.5)))
        )
    except (KeyError, TypeError, ValueError):
        return None
    if len(partitions) != partition.get("total") or not 0 <= index < len(partitions):
        return None
    jobs = partitions[index]
    if [job.cache_key() for job in jobs] != partition.get("keys"):
        return None
    return jobs


def run_worker(
    coordinator: str,
    cache_dir: Optional[str] = None,
    jobs: int = 1,
    worker_id: Optional[str] = None,
    token: Optional[str] = None,
    poll_s: float = 1.0,
    drain: bool = False,
    max_partitions: Optional[int] = None,
    client: Optional[CoordinatorClient] = None,
    store: Optional[ResultStore] = None,
    log: Optional[Callable[[str], None]] = None,
) -> WorkerReport:
    """Lease, simulate and ack partitions until stopped.

    ``drain=True`` exits once the coordinator reports the queue fully
    drained (nothing pending *or* leased); otherwise the worker keeps
    polling every ``poll_s`` seconds for new work.  ``max_partitions``
    bounds how many partitions this call processes (tests, fault
    injection).  A background thread heartbeats every leased partition at
    a third of the advertised lease TTL so long replays never expire
    mid-simulation on a live worker.
    """
    from .experiments.sweep import ParallelSweepEngine

    client = client or CoordinatorClient(coordinator, worker_id=worker_id, token=token)
    if store is None:
        root = Path(cache_dir) if cache_dir else ResultStore.default_dir()
        store = ResultStore(root, remote=RemoteStore(client.base_url, token=client.token))
    engine = ParallelSweepEngine(jobs=jobs, store=store)
    report = WorkerReport(worker=client.worker_id, coordinator=client.base_url)
    say = log or (lambda message: None)

    stop = threading.Event()

    def beat() -> None:
        # Cadence re-reads lease_ttl_s each lap: a later lease response may
        # change the advertised TTL.
        while not stop.wait(max(0.05, client.lease_ttl_s / 3.0)):
            if client.dead:
                return
            try:
                client.heartbeat()
            except CoordinatorError:
                return

    heartbeat_thread: Optional[threading.Thread] = None

    try:
        while True:
            processed = report.acked + report.stale_acks + report.mismatched
            if max_partitions is not None and processed >= max_partitions:
                break
            answer = client.lease()
            if answer is not None and heartbeat_thread is None:
                # Started only after the first lease answer, so the cadence
                # derives from the TTL this coordinator actually advertises
                # (a third of it) instead of the client-side default.
                heartbeat_thread = threading.Thread(
                    target=beat, name="repro-worker-heartbeat", daemon=True
                )
                heartbeat_thread.start()
            if answer is None:
                # Coordinator dead: the one warning already fired in the
                # client; any previously-computed results are safe in the
                # store tiers, so just stop asking.
                report.coordinator_lost = True
                break
            partition = answer.get("partition")
            if partition is None:
                if drain and answer.get("drained"):
                    break
                time.sleep(poll_s)
                continue
            partition_id = partition.get("id")
            if not isinstance(partition_id, str) or not partition_id:
                # A partition with no usable id cannot be nacked (the
                # coordinator would 404 an empty id) or acked; count it as
                # mismatched and let its lease -- if one even exists --
                # expire on the coordinator.
                report.mismatched += 1
                say("partition without an id: malformed answer, skipping (no nack)")
                time.sleep(poll_s)
                continue
            partition_jobs = resolve_partition_jobs(partition)
            if partition_jobs is None:
                report.mismatched += 1
                say(
                    f"partition {partition_id}: local job derivation does "
                    "not match the advertised keys (version skew?); nacking"
                )
                client.nack(partition_id, reason="partition key mismatch")
                # A mismatch is deterministic for this worker's source tree:
                # back off so a fully-skewed queue is not nack-spun.
                time.sleep(poll_s)
                continue
            outcomes = engine.run_jobs(partition_jobs)
            simulated = [
                job.cache_key()
                for job, outcome in outcomes.items()
                if outcome.source == "computed"
            ]
            status = client.ack(partition["id"])
            report.partitions.append(
                {
                    "id": partition["id"],
                    "experiment": partition["experiment"],
                    "jobs": len(partition_jobs),
                    "simulated": simulated,
                    "ack": status or "dead",
                }
            )
            if status == "ok":
                report.acked += 1
            elif status == "stale":
                report.stale_acks += 1
            else:
                report.coordinator_lost = True
            say(
                f"partition {partition['id']}: {len(partition_jobs)} jobs, "
                f"{len(simulated)} simulated, ack={status or 'dead'}"
            )
            if status is None:
                break
    finally:
        stop.set()
        # Releases the persistent pool no matter how the lease loop ended.
        engine.close()
    return report


def write_report(report: WorkerReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
