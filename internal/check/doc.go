// Package check is the differential and metamorphic correctness harness
// for the semantic core of the system: the four error measures (SED, PED,
// DAD, SAD), the incremental errm.Tracker that computes RL rewards, the
// streaming online path, and the Min-Size solvers. It exists because all
// of those rely on hand-derived geometry and bookkeeping that ordinary
// unit tests only spot-check; the harness instead proves agreement
// between independent implementations over adversarial inputs.
//
// Four pillars, mirroring the one-pass error-bounded simplification
// literature's use of exact oracles:
//
//   - Oracle equivalence: errm.Tracker drop/extend sequences against full
//     errm.Error recomputation (exact); core.Streamer push loops against
//     the slice-based online core.Simplify on identical feeds (exact when
//     no skip actions exist); minsize.Optimal against brute-force subset
//     enumeration on short trajectories; errm.SegmentError's hoisted span
//     kernels against the maximum of the per-point errm.PointError
//     (bitwise, every family and span length); the errm measures against
//     independently coded reference formulas (tolerance-based).
//   - Metamorphic invariants: all four measures are invariant under
//     translation, rotation and uniform time shift (rigid motions of the
//     spatio-temporal input); asserted at 1e-9 relative tolerance.
//   - Adversarial geometry: seeded generators produce zero-length
//     segments, near-duplicate timestamps, collinear runs, stationary
//     stretches and extreme-magnitude coordinates; every measure and both
//     simplify modes must stay total (no NaN, no Inf for representable
//     true values, no panic) over all of them.
//   - CI wiring: `make check-diff` runs the harness under the race
//     detector with fixed seeds; scripts/check.sh runs it as a gate
//     stage. CHECK_SCALE multiplies the iteration budget for deeper
//     soak runs.
//
// Everything here is deterministic: generators and policies derive from
// fixed seeds, so a failure reproduces exactly.
package check
