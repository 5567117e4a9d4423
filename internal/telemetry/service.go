package telemetry

import (
	"fmt"
	"io"
	"sync/atomic"
)

// ServiceStats is the occamy-serve job service's metrics surface: lock-free
// atomic counters and gauges updated from the admission path, the worker
// pool and the checkpoint cache, rendered in the same OpenMetrics dialect as
// the per-run sampler families (validated by ValidateOpenMetrics). All fields
// are manipulated through the methods; the zero value is ready to use.
type ServiceStats struct {
	// Gauges.
	queueDepth atomic.Int64 // jobs admitted but not yet picked up by a worker
	running    atomic.Int64 // jobs currently executing on a worker
	draining   atomic.Int64 // 1 once drain begins
	tenants    atomic.Int64 // tenants with at least one queued or running job

	// Admission counters.
	admitted         atomic.Uint64 // accepted into the queue
	deduped          atomic.Uint64 // coalesced onto an identical in-flight job
	rejectedFull     atomic.Uint64 // 429: queue at capacity
	rejectedQuota    atomic.Uint64 // 429: tenant over its in-flight quota
	rejectedDraining atomic.Uint64 // 503: submitted during drain

	// Execution counters.
	doneOK     atomic.Uint64 // jobs that completed successfully
	doneFailed atomic.Uint64 // jobs that failed permanently
	retries    atomic.Uint64 // attempts re-queued after a transient failure
	timeouts   atomic.Uint64 // attempts killed by their deadline
	stalls     atomic.Uint64 // attempts killed by the forward-progress watchdog
	parked     atomic.Uint64 // jobs checkpoint-parked by a drain
	replayed   atomic.Uint64 // journal entries re-admitted on restart

	// Checkpoint-cache counters.
	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64
	cacheCorrupt   atomic.Uint64 // entries that failed digest verification on load
	cacheEvictions atomic.Uint64 // capacity evictions (corrupt evictions count here too)
}

// Queue-depth gauge.
func (s *ServiceStats) QueueAdd(d int64) { s.queueDepth.Add(d) }

// Running-jobs gauge.
func (s *ServiceStats) RunningAdd(d int64) { s.running.Add(d) }

// SetDraining flips the drain-state gauge.
func (s *ServiceStats) SetDraining(on bool) {
	if on {
		s.draining.Store(1)
	} else {
		s.draining.Store(0)
	}
}

// SetTenants records the number of tenants with live work.
func (s *ServiceStats) SetTenants(n int64) { s.tenants.Store(n) }

func (s *ServiceStats) Admitted()         { s.admitted.Add(1) }
func (s *ServiceStats) Deduped()          { s.deduped.Add(1) }
func (s *ServiceStats) RejectedFull()     { s.rejectedFull.Add(1) }
func (s *ServiceStats) RejectedQuota()    { s.rejectedQuota.Add(1) }
func (s *ServiceStats) RejectedDraining() { s.rejectedDraining.Add(1) }
func (s *ServiceStats) DoneOK()           { s.doneOK.Add(1) }
func (s *ServiceStats) DoneFailed()       { s.doneFailed.Add(1) }
func (s *ServiceStats) Retried()          { s.retries.Add(1) }
func (s *ServiceStats) TimedOut()         { s.timeouts.Add(1) }
func (s *ServiceStats) Stalled()          { s.stalls.Add(1) }
func (s *ServiceStats) Parked()           { s.parked.Add(1) }
func (s *ServiceStats) Replayed()         { s.replayed.Add(1) }
func (s *ServiceStats) CacheHit()         { s.cacheHits.Add(1) }
func (s *ServiceStats) CacheMiss()        { s.cacheMisses.Add(1) }
func (s *ServiceStats) CacheCorrupt()     { s.cacheCorrupt.Add(1) }
func (s *ServiceStats) CacheEvicted()     { s.cacheEvictions.Add(1) }

// Read-side accessors used by tests and the drain path.
func (s *ServiceStats) QueueDepth() int64     { return s.queueDepth.Load() }
func (s *ServiceStats) Running() int64        { return s.running.Load() }
func (s *ServiceStats) CacheHits() uint64     { return s.cacheHits.Load() }
func (s *ServiceStats) CacheMissed() uint64   { return s.cacheMisses.Load() }
func (s *ServiceStats) CacheCorrupts() uint64 { return s.cacheCorrupt.Load() }
func (s *ServiceStats) Retries() uint64       { return s.retries.Load() }

// svcFamily declares one occamy_serve_* OpenMetrics family.
type svcFamily struct {
	omMeta
	load func(s *ServiceStats) any
}

var svcFamilies = []svcFamily{
	{omMeta{"occamy_serve_queue_depth", "gauge", "Jobs admitted and waiting for a worker."},
		func(s *ServiceStats) any { return s.queueDepth.Load() }},
	{omMeta{"occamy_serve_running", "gauge", "Jobs currently executing."},
		func(s *ServiceStats) any { return s.running.Load() }},
	{omMeta{"occamy_serve_draining", "gauge", "1 while the service is draining."},
		func(s *ServiceStats) any { return s.draining.Load() }},
	{omMeta{"occamy_serve_live_tenants", "gauge", "Tenants with queued or running jobs."},
		func(s *ServiceStats) any { return s.tenants.Load() }},
	{omMeta{"occamy_serve_admitted", "counter", "Jobs accepted into the queue."},
		func(s *ServiceStats) any { return s.admitted.Load() }},
	{omMeta{"occamy_serve_deduplicated", "counter", "Submissions coalesced onto an identical in-flight job."},
		func(s *ServiceStats) any { return s.deduped.Load() }},
	{omMeta{"occamy_serve_rejected_queue_full", "counter", "Submissions rejected with 429: queue at capacity."},
		func(s *ServiceStats) any { return s.rejectedFull.Load() }},
	{omMeta{"occamy_serve_rejected_quota", "counter", "Submissions rejected with 429: tenant over quota."},
		func(s *ServiceStats) any { return s.rejectedQuota.Load() }},
	{omMeta{"occamy_serve_rejected_draining", "counter", "Submissions rejected with 503 during drain."},
		func(s *ServiceStats) any { return s.rejectedDraining.Load() }},
	{omMeta{"occamy_serve_jobs_done", "counter", "Jobs completed successfully."},
		func(s *ServiceStats) any { return s.doneOK.Load() }},
	{omMeta{"occamy_serve_jobs_failed", "counter", "Jobs failed permanently."},
		func(s *ServiceStats) any { return s.doneFailed.Load() }},
	{omMeta{"occamy_serve_retries", "counter", "Attempts re-queued after a transient failure."},
		func(s *ServiceStats) any { return s.retries.Load() }},
	{omMeta{"occamy_serve_timeouts", "counter", "Attempts killed by their deadline."},
		func(s *ServiceStats) any { return s.timeouts.Load() }},
	{omMeta{"occamy_serve_stalls", "counter", "Attempts killed by the forward-progress watchdog."},
		func(s *ServiceStats) any { return s.stalls.Load() }},
	{omMeta{"occamy_serve_jobs_parked", "counter", "Jobs checkpoint-parked by a drain."},
		func(s *ServiceStats) any { return s.parked.Load() }},
	{omMeta{"occamy_serve_jobs_replayed", "counter", "Journal entries re-admitted on restart."},
		func(s *ServiceStats) any { return s.replayed.Load() }},
	{omMeta{"occamy_serve_cache_hits", "counter", "Checkpoint-cache hits."},
		func(s *ServiceStats) any { return s.cacheHits.Load() }},
	{omMeta{"occamy_serve_cache_misses", "counter", "Checkpoint-cache misses (cold warm-ups)."},
		func(s *ServiceStats) any { return s.cacheMisses.Load() }},
	{omMeta{"occamy_serve_cache_corrupt", "counter", "Checkpoint-cache entries that failed digest verification."},
		func(s *ServiceStats) any { return s.cacheCorrupt.Load() }},
	{omMeta{"occamy_serve_cache_evictions", "counter", "Checkpoint-cache entries evicted."},
		func(s *ServiceStats) any { return s.cacheEvictions.Load() }},
}

// WriteOpenMetrics renders the service families through the sampler's
// writer, so the output passes ValidateOpenMetrics.
func (s *ServiceStats) WriteOpenMetrics(w io.Writer) error {
	return writeOpenMetrics(w, len(svcFamilies),
		func(i int) *omMeta { return &svcFamilies[i].omMeta },
		func(w io.Writer, i int, sample string) {
			fmt.Fprintf(w, "%s %d\n", sample, svcFamilies[i].load(s))
		})
}
