package check

import (
	"math"
	"math/rand"
	"testing"

	"rlts/internal/errm"
	"rlts/internal/traj"
)

// errm.SegmentError runs span kernels that hoist the anchor's quantities
// out of the per-point loop. Their oracle is the definition: the maximum
// of the per-point errm.PointError (itself built straight on the geo
// primitives) over the interior points for SED/PED and over the motion
// segments starting at a..b-1 for DAD/SAD. Agreement is asserted bit for
// bit on every adversarial family, including the overflow-probing extreme
// and huge families and the near-duplicate timestamps, so every heap order
// and policy decision downstream is unchanged by the kernels.

// pointErrorMax is the oracle: max over PointError, folded from 0 with the
// same > comparison SegmentError uses.
func pointErrorMax(m errm.Measure, tr traj.Trajectory, a, b int) float64 {
	lo := a + 1
	if m == errm.DAD || m == errm.SAD {
		lo = a
	}
	var worst float64
	for i := lo; i < b; i++ {
		if d := errm.PointError(m, tr, a, i, b); d > worst {
			worst = d
		}
	}
	return worst
}

func TestSegmentErrorKernelBitIdentity(t *testing.T) {
	const n = 300
	for _, g := range generators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(4)
			for round := 0; round < rounds; round++ {
				r := rand.New(rand.NewSource(int64(7000 + round)))
				tr := g.gen(r, n)
				for _, m := range errm.Measures {
					// Span lengths in points: 2 (adjacent, error 0), 3 (one
					// interior point), 20, 200 and the whole trajectory.
					for _, span := range []int{2, 3, 20, 200, n} {
						stride := 1
						if span >= 200 {
							stride = 7
						}
						for a := 0; a+span <= n; a += stride {
							b := a + span - 1
							got := errm.SegmentError(m, tr, a, b)
							want := pointErrorMax(m, tr, a, b)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s %v round %d span [%d,%d]: kernel %v (%#x), PointError max %v (%#x)",
									g.name, m, round, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
							}
						}
					}
				}
			}
		})
	}
}
