package errm

import (
	"math"

	"rlts/internal/geo"
	"rlts/internal/traj"
)

// Span kernels behind SegmentError. Each computes the anchor's
// span-invariant quantities once and keeps per point only what depends on
// the point, with the same float64 operations in the same order as the
// geo primitives PointError calls. The result is bit-identical to the
// maximum of PointError over the span (SED/PED over the interior points,
// DAD/SAD over the motion segments starting at a..b-1); that maximum is
// the oracle of TestSegmentErrorKernelBitIdentity (internal/check) and
// FuzzSegmentError.
//
// The overflow slow paths of the geo primitives (closestParamWide, the
// halved TimeParam and Speed, the convex lerp form) are never re-coded
// here. A span whose hoisted quantities leave the fast path (a zero or
// non-finite divisor, an infinite dx or dy) is scored by pointMax, which
// calls PointError itself; a single point whose fast-path distance is not
// finite is re-scored by PointError. Both selections test computed
// values, never input magnitudes.

// distSpan is the SED/PED kernel. Per point it computes the interpolation
// parameter u (geo.Segment.TimeParam for SED, geo.Segment.ClosestParam for
// PED) against the hoisted divisor, clamps it as clamp01 does, forms the
// anchor position as geo.Lerp's fast form does (the unused T component is
// skipped) and takes the distance with math.Hypot as geo.Dist does.
func distSpan(m Measure, t traj.Trajectory, a, b int) float64 {
	s, e := t[a], t[b]
	dx, dy := e.X-s.X, e.Y-s.Y
	// div is the divisor of u: the anchor's duration for SED, its squared
	// length for PED. Outside (0, MaxFloat64] the primitives take a
	// degenerate branch (u = 0) or an overflow slow path, and an infinite
	// dx or dy sends geo.Lerp to its convex form; all are left to
	// PointError.
	div := e.T - s.T
	if m == PED {
		div = dx*dx + dy*dy
	}
	if !(div > 0 && div <= math.MaxFloat64 && math.Abs(dx) <= math.MaxFloat64 && math.Abs(dy) <= math.MaxFloat64) {
		return pointMax(m, t, a, b)
	}
	var worst float64
	for i := a + 1; i < b; i++ {
		p := t[i]
		var u float64
		if m == SED {
			u = (p.T - s.T) / div
		} else {
			u = ((p.X-s.X)*dx + (p.Y-s.Y)*dy) / div
		}
		// clamp01: NaN and -0 map to +0.
		if !(u > 0) {
			u = 0
		} else if u > 1 {
			u = 1
		}
		d := math.Hypot(p.X-(s.X+u*dx), p.Y-(s.Y+u*dy))
		if !(d <= worst) {
			if !(d <= math.MaxFloat64) {
				// The fast lerp form or a difference overflowed (Hypot
				// returns +Inf), or the input holds a NaN. geo.Lerp may
				// take its convex form here, so PointError answers.
				d = PointError(m, t, a, i, b)
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// dadSpan is the DAD kernel: the anchor's degeneracy test and heading are
// hoisted; per motion segment it is geo.DirectionDistance's remaining work.
func dadSpan(t traj.Trajectory, a, b int) float64 {
	anchor := t.Segment(a, b)
	if anchor.IsDegenerate() {
		return 0 // every motion segment contributes 0
	}
	dir := anchor.Direction()
	var worst float64
	for i := a; i < b; i++ {
		mo := t.Segment(i, i+1)
		if mo.IsDegenerate() {
			continue
		}
		if d := geo.AngularDifference(dir, mo.Direction()); d > worst {
			worst = d
		}
	}
	return worst
}

// sadSpan is the SAD kernel: the anchor's speed (a Hypot and a divide) is
// hoisted; per motion segment it is geo.SpeedDistance's remaining work.
func sadSpan(t traj.Trajectory, a, b int) float64 {
	sp := t.Segment(a, b).Speed()
	spInf := math.IsInf(sp, 1)
	var worst float64
	for i := a; i < b; i++ {
		v := t.Segment(i, i+1).Speed()
		if spInf && math.IsInf(v, 1) {
			continue // both saturate: equal speeds, error 0
		}
		if d := math.Abs(sp - v); d > worst {
			worst = d
		}
	}
	return worst
}

// pointMax is the SED/PED SegmentError by definition: the maximum of
// PointError over the interior points. distSpan falls back to it for
// anchors whose hoisted quantities leave the fast path.
func pointMax(m Measure, t traj.Trajectory, a, b int) float64 {
	var worst float64
	for i := a + 1; i < b; i++ {
		if d := PointError(m, t, a, i, b); d > worst {
			worst = d
		}
	}
	return worst
}
