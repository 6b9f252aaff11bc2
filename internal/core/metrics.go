package core

import (
	"sync"

	"rlts/internal/errm"
	"rlts/internal/obs"
)

// Simplification metrics, registered in the process-wide obs registry.
// Hot-path discipline: the MDP step loop and Streamer.Push never touch an
// atomic per step — counts accumulate in plain locals/fields and flush as
// a single atomic add per run (Simplify) or per snapshot (Streamer), so
// the simplify/rollout benchmarks stay within noise of the uninstrumented
// build.
//
// Registration is lazy (first Simplify/Snapshot pays it) rather than
// package-init eager: init-time registry allocations shift the heap
// layout of everything allocated afterwards, which measurably perturbs
// the alignment-sensitive hot-path microbenchmarks.
type coreMetricsSet struct {
	simplifyRuns     *obs.Counter
	simplifySteps    *obs.Counter
	streamPoints     *obs.Counter
	streamSkipped    *obs.Counter
	streamBufferFill *obs.Histogram

	// simplifyError holds the per-measure error distribution of served
	// simplifications. The buckets span the synthetic profiles' typical
	// SED/PED meters and the dimensionless SAD/DAD radians.
	simplifyError map[errm.Measure]*obs.Histogram
}

var (
	coreMetricsMu    sync.Mutex
	coreMetricsByReg map[*obs.Registry]*coreMetricsSet
)

// coreMetricsFor returns the core metric set registered in reg, building
// it on first use. Most callers record into obs.Default() via
// coreMetrics(); the HTTP layer passes its own registry so serving-path
// series land where GET /metrics scrapes them (see Streamer.UseRegistry
// and ObserveErrorIn).
func coreMetricsFor(reg *obs.Registry) *coreMetricsSet {
	coreMetricsMu.Lock()
	defer coreMetricsMu.Unlock()
	if s, ok := coreMetricsByReg[reg]; ok {
		return s
	}
	errs := make(map[errm.Measure]*obs.Histogram, len(errm.Measures))
	for _, ms := range errm.Measures {
		errs[ms] = reg.Histogram("rlts_simplify_error",
			"Simplification error of served results, by measure",
			obs.ExpBuckets(1e-4, 4, 14), obs.L("measure", ms.String()))
	}
	s := &coreMetricsSet{
		simplifyRuns: reg.Counter("rlts_simplify_runs_total",
			"Completed Simplify/SimplifyCtx invocations"),
		simplifySteps: reg.Counter("rlts_simplify_steps_total",
			"MDP steps executed by Simplify/SimplifyCtx"),
		streamPoints: reg.Counter("rlts_stream_points_total",
			"Points pushed through core.Streamer instances"),
		streamSkipped: reg.Counter("rlts_stream_skipped_points_total",
			"Points discarded unseen by streaming skip actions"),
		streamBufferFill: reg.Histogram("rlts_stream_buffer_fill_ratio",
			"Buffer occupancy as a fraction of W, observed at snapshot time",
			obs.LinearBuckets(0.1, 0.1, 10)),
		simplifyError: errs,
	}
	if coreMetricsByReg == nil {
		coreMetricsByReg = make(map[*obs.Registry]*coreMetricsSet)
	}
	coreMetricsByReg[reg] = s
	return s
}

func coreMetrics() *coreMetricsSet { return coreMetricsFor(obs.Default()) }

// ObserveErrorIn records a computed simplification error into the
// per-measure distribution of reg. Callers that already paid for
// errm.Error (the HTTP handlers) feed it, so the distribution appears in
// the registry their /metrics endpoint serves; the simplify hot path
// itself never computes errors.
func ObserveErrorIn(reg *obs.Registry, m errm.Measure, v float64) {
	if h, ok := coreMetricsFor(reg).simplifyError[m]; ok {
		h.Observe(v)
	}
}
