package obs

import (
	"runtime"
)

// Resource attribution (the query cost observatory's ground truth):
// every traced query captures the Go runtime's cumulative allocation
// counters at admission and completion, and every operator accounts
// the memory it materializes locally. The two views cross-check each
// other — operator-local counters are a deliberate under-estimate
// (materialized tables and join build structures, not transient
// per-row garbage), so on an otherwise idle engine
//
//	0 < OpAllocBytes <= AllocBytes
//
// always holds, and on the bench workload the operator sum lands
// within the tolerance documented in DESIGN.md §6. Under concurrent
// queries the runtime deltas are process-global (they over-attribute:
// a query's delta includes its neighbours' allocations), which keeps
// the inequality valid in that direction too.

// AllocSnapshot is a point-in-time read of the runtime's cumulative
// heap allocation counters (MemStats.TotalAlloc/Mallocs). Both
// counters are monotone and GC-independent: freed memory never
// subtracts, so deltas between snapshots are exact allocation volume.
type AllocSnapshot struct {
	Bytes   uint64
	Objects uint64
}

// ReadAllocs samples the runtime's cumulative allocation counters.
// runtime.ReadMemStats (not runtime/metrics): the metrics package's
// small-object counts lag until the owning P's span is refilled, so a
// query whose operator ledger accounts nearly everything it allocates
// (the columnar engine's slabs) could read op-accounted > physical and
// break the two-ledger invariant. ReadMemStats flushes every mcache
// first, making the counters exact; its brief stop-the-world is
// microseconds against millisecond-scale queries.
func ReadAllocs() AllocSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return AllocSnapshot{Bytes: m.TotalAlloc, Objects: m.Mallocs}
}

// DeltaSince returns the allocation volume between prev and a (bytes,
// objects). Negative deltas (impossible for a monotone counter, but
// guard anyway) clamp to zero.
func (a AllocSnapshot) DeltaSince(prev AllocSnapshot) (bytes, objects int64) {
	if a.Bytes > prev.Bytes {
		bytes = int64(a.Bytes - prev.Bytes)
	}
	if a.Objects > prev.Objects {
		objects = int64(a.Objects - prev.Objects)
	}
	return bytes, objects
}

// ResourceUsage is the per-query resource attribution block of a
// QueryTrace: the physical runtime/metrics deltas bracketing the
// query, the operator-local logical sums, and the CPU-time proxy.
type ResourceUsage struct {
	// AllocBytes/Mallocs are the runtime/metrics heap-allocation deltas
	// captured at admission and completion. Process-global: exact for a
	// query running alone, an over-attribution under concurrency.
	AllocBytes int64 `json:"alloc_bytes"`
	Mallocs    int64 `json:"mallocs"`
	// OpAllocBytes/OpMallocs sum the operator-local accounted
	// footprints over all operators and ranks (see exec.Footprint); a
	// deliberate under-estimate of the physical counters above.
	OpAllocBytes int64 `json:"op_alloc_bytes"`
	OpMallocs    int64 `json:"op_mallocs"`
	// CPUSeconds sums measured operator wall time over all ranks — the
	// engine's CPU proxy (rank goroutines are CPU-bound on real
	// kernels; virtually-charged kernels contribute no wall time).
	CPUSeconds float64 `json:"cpu_seconds"`
}

// OpCoverage returns the fraction of the physical allocation delta the
// operator-local byte accounting explains (0 when no delta was
// captured). The reconciliation tolerance on this ratio is documented
// in DESIGN.md §6.
func (r *ResourceUsage) OpCoverage() float64 {
	if r == nil || r.AllocBytes <= 0 {
		return 0
	}
	return float64(r.OpAllocBytes) / float64(r.AllocBytes)
}
