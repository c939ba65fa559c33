package campaign

import (
	"fmt"

	"astro/internal/telemetry"
)

// Telemetry instruments for the campaign layer, registered on the shared
// Default registry. Everything here is observational: no instrument is
// ever read back by campaign logic, and none of these values can reach
// cache keys, result bytes, or fingerprints (DESIGN.md invariant 8).
var (
	// Result store tiers.
	cStoreHits   = telemetry.Default.Counter("astro_store_hits_total", "Result-store lookups served from memory or disk.")
	cStoreMisses = telemetry.Default.Counter("astro_store_misses_total", "Result-store lookups that found nothing.")
	cStorePuts   = telemetry.Default.Counter("astro_store_puts_total", "Results written to the store.")
	hStoreGet    = telemetry.Default.Histogram("astro_store_get_seconds", "Store.Get latency (a memory-only map read or a value-file read).", nil)
	hStorePut    = telemetry.Default.Histogram("astro_store_put_seconds", "Store.Put latency (a memory-only map write or a crash-safe disk write).", nil)

	// Bounded-store machinery: disk caps, pins
	// (see bounded.go and DESIGN.md invariant 11).
	cStoreDiskWrites = telemetry.Default.Counter("astro_store_disk_writes_total", "Value files written to the disk tier (one per unique key).")
	cStorePutNoops   = telemetry.Default.Counter("astro_store_put_noops_total", "Puts of already-stored keys skipped without a disk write.")
	cStoreEvictions  = telemetry.Default.Counter("astro_store_evictions_total", "Disk-tier entries evicted to honour the byte cap.")
	gStoreDiskBytes  = telemetry.Default.Gauge("astro_store_disk_bytes", "Value bytes resident in the disk tier.")
	gStoreDiskKeys   = telemetry.Default.Gauge("astro_store_disk_keys", "Distinct keys resident in the disk tier.")
	gStorePinnedKeys = telemetry.Default.Gauge("astro_store_pinned_keys", "Content keys currently pinned against eviction.")

	// In-process pool economics.
	cPoolHit  = telemetry.Default.Counter(`astro_pool_cells_total{result="hit"}`, "Pool cells by outcome.")
	cPoolExec = telemetry.Default.Counter(`astro_pool_cells_total{result="executed"}`, "Pool cells by outcome.")
	cPoolErr  = telemetry.Default.Counter(`astro_pool_cells_total{result="error"}`, "Pool cells by outcome.")
	hPoolExec = telemetry.Default.Histogram("astro_pool_execute_seconds", "Fresh simulation latency in Pool.runOne (cache misses only).", nil)

	// Trained-agent cache.
	cTrainHit   = telemetry.Default.Counter(`astro_train_cells_total{result="hit"}`, "Training cells by outcome.")
	cTrainFresh = telemetry.Default.Counter(`astro_train_cells_total{result="trained"}`, "Training cells by outcome.")
	cTrainErr   = telemetry.Default.Counter(`astro_train_cells_total{result="error"}`, "Training cells by outcome.")
	hTrain      = telemetry.Default.Histogram("astro_train_seconds", "Fresh training-cell latency (cache misses only).", nil)

	// Work queue (coordinator side).
	cQEnqueued   = telemetry.Default.Counter("astro_queue_enqueued_total", "Cells accepted by WorkQueue.Enqueue.")
	cQLeased     = telemetry.Default.Counter("astro_queue_leases_total", "Cell leases granted (including re-issues).")
	cQDoneSim    = telemetry.Default.Counter(`astro_queue_completed_total{kind="sim"}`, "Cells completed by kind.")
	cQDoneTrain  = telemetry.Default.Counter(`astro_queue_completed_total{kind="train"}`, "Cells completed by kind.")
	cQRequeues   = telemetry.Default.Counter("astro_queue_requeues_total", "Lease expiries that re-issued a cell.")
	cQRenewals   = telemetry.Default.Counter("astro_queue_renewals_total", "Lease renewals granted.")
	cQRejects    = telemetry.Default.Counter("astro_queue_rejects_total", "Submitted results rejected by validation.")
	cQDuplicates = telemetry.Default.Counter("astro_queue_duplicates_total", "Duplicate submissions for already-done cells.")
	hQLeaseWait  = telemetry.Default.Histogram("astro_queue_lease_wait_seconds", "Enqueue-to-first-lease wait per cell.", nil)
	hQExecSim    = telemetry.Default.Histogram(`astro_queue_execute_seconds{kind="sim"}`, "Worker-reported execute span per completed cell, by kind.", nil)
	hQExecTrain  = telemetry.Default.Histogram(`astro_queue_execute_seconds{kind="train"}`, "Worker-reported execute span per completed cell, by kind.", nil)
	gQPending    = telemetry.Default.Gauge("astro_queue_pending", "Cells currently waiting for a lease.")
	gQLeased     = telemetry.Default.Gauge("astro_queue_leased", "Cells currently leased out.")
	gQWorkers    = telemetry.Default.Gauge("astro_queue_workers", "Workers that have ever contacted this queue.")

	// Flight recorder (the EventSink seam; see internal/journal).
	cQJournalEvents = telemetry.Default.Counter("astro_journal_events_total", "Lifecycle events recorded to the fleet journal.")
	cQJournalErrors = telemetry.Default.Counter("astro_journal_errors_total", "Journal appends that failed (events dropped; the queue is unaffected).")

	// Worker lifecycle transitions (draining, quarantine) and chaos seams.
	cQDrains         = telemetry.Default.Counter("astro_queue_worker_drains_total", "Workers flipped into the draining state.")
	cQResumes        = telemetry.Default.Counter("astro_queue_worker_resumes_total", "Drained or quarantined workers explicitly resumed.")
	cQQuarantines    = telemetry.Default.Counter("astro_queue_worker_quarantines_total", "Workers quarantined after repeated rejected submissions.")
	cQDrainRequeues  = telemetry.Default.Counter("astro_queue_drain_requeues_total", "Leases reclaimed because their holder drained past its deadline.")
	cQFaultsInjected = telemetry.Default.Counter(`astro_faults_injected_total{site="queue"}`, "Injected faults fired, by site.")

	// Worker side (meaningful in `astro worker` processes; also registered
	// on coordinators so the exposition schema is stable everywhere).
	cWLeaseErrs = telemetry.Default.Counter("astro_worker_lease_errors_total", "Coordinator-unreachable or HTTP-error lease attempts on this worker.")
	cWCells     = telemetry.Default.Counter("astro_worker_cells_total", "Cells executed by this worker process.")
	cWDrains    = telemetry.Default.Counter("astro_worker_drains_total", "Drain transitions of this worker process (SIGTERM or Drain call).")
	cWAbandoned = telemetry.Default.Counter("astro_worker_abandoned_total", "Cells abandoned without submission after the coordinator reported the lease lost.")
	cWFaults    = telemetry.Default.Counter(`astro_faults_injected_total{site="worker"}`, "Injected faults fired, by site.")
)

// shardGauge returns the occupancy gauge for shard i of a sharded store.
// One labeled gauge per shard index; stores sharing a shard count share
// gauges, which is fine — occupancy is a live reading, not an accumulator.
func shardGauge(i int) *telemetry.Gauge {
	return telemetry.Default.Gauge(
		fmt.Sprintf(`astro_store_shard_keys{shard="%02x"}`, i),
		"Distinct disk-tier keys this process tracks per shard.")
}
