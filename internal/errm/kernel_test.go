package errm

import (
	"encoding/binary"
	"math"
	"testing"

	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/traj"
)

// pointErrorMax is the definition SegmentError's span kernels must match
// bit for bit: the maximum of PointError over the interior points (SED,
// PED) or the motion segments starting at a..b-1 (DAD, SAD).
func pointErrorMax(m Measure, t traj.Trajectory, a, b int) float64 {
	lo := a + 1
	if m == DAD || m == SAD {
		lo = a
	}
	var worst float64
	for i := lo; i < b; i++ {
		if d := PointError(m, t, a, i, b); d > worst {
			worst = d
		}
	}
	return worst
}

// decodeSpan turns fuzz bytes into a measure, a trajectory and a span:
// byte 0 picks the measure, bytes 1 and 2 the span start and length, and
// every following 24 bytes are one little-endian (x, y, t) triple. Triples
// holding a non-finite value are dropped; times need not increase.
func decodeSpan(data []byte) (Measure, traj.Trajectory, int, int, bool) {
	if len(data) < 3 {
		return 0, nil, 0, 0, false
	}
	m := Measures[int(data[0])%len(Measures)]
	var t traj.Trajectory
	for rest := data[3:]; len(rest) >= 24; rest = rest[24:] {
		p := geo.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(rest)),
			math.Float64frombits(binary.LittleEndian.Uint64(rest[8:])),
			math.Float64frombits(binary.LittleEndian.Uint64(rest[16:])))
		if p.IsFinite() {
			t = append(t, p)
		}
	}
	if len(t) < 2 {
		return 0, nil, 0, 0, false
	}
	a := int(data[1]) % (len(t) - 1)
	b := a + 1 + int(data[2])%(len(t)-1-a)
	return m, t, a, b, true
}

// encodeSpan is decodeSpan's inverse, for seeding the corpus.
func encodeSpan(m Measure, a, b int, pts ...geo.Point) []byte {
	out := []byte{byte(m), byte(a), byte(b - a - 1)}
	for _, p := range pts {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.X))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Y))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.T))
	}
	return out
}

// FuzzSegmentError drives the span kernels with arbitrary finite points —
// signed zeros, subnormals, values near ±MaxFloat64, unsorted and equal
// times — and requires the result to be bit-identical to the PointError
// maximum.
func FuzzSegmentError(f *testing.F) {
	max := math.MaxFloat64
	tiny := math.SmallestNonzeroFloat64
	for _, m := range Measures {
		f.Add(encodeSpan(m, 0, 2, geo.Pt(0, 0, 0), geo.Pt(3, 4, 1), geo.Pt(10, 0, 2)))
		f.Add(encodeSpan(m, 0, 3, geo.Pt(math.Copysign(0, -1), 0, 0), geo.Pt(tiny, -tiny, 1),
			geo.Pt(0, math.Copysign(0, -1), 1), geo.Pt(2*tiny, 0, 2)))
		f.Add(encodeSpan(m, 0, 3, geo.Pt(-max, max, -max), geo.Pt(max, -max, 0),
			geo.Pt(max/2, max, max), geo.Pt(max, -max, max)))
		f.Add(encodeSpan(m, 0, 2, geo.Pt(1e-300, 1e-300, 0), geo.Pt(3e-300, -2e-300, 1e-300),
			geo.Pt(4e-300, 0, 2e-300)))
		// D = fl(Max - 3·2^970) rounds up by 2^970, so the fast lerp form
		// 3·2^970 + 1·D ties to +Inf where geo.Lerp's convex form gives
		// Max: the kernel's per-point PointError fallback must answer.
		f.Add(encodeSpan(m, 0, 2, geo.Pt(0x3p970, 0, 0), geo.Pt(max, 0, 2), geo.Pt(max, 0, 1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, tr, a, b, ok := decodeSpan(data)
		if !ok {
			return
		}
		got, want := SegmentError(m, tr, a, b), pointErrorMax(m, tr, a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v span [%d,%d] of %v: SegmentError %v (%#x), PointError max %v (%#x)",
				m, a, b, tr, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

func TestSegmentErrorZeroAlloc(t *testing.T) {
	tr := gen.New(gen.Geolife(), 1).Trajectory(300)
	for _, m := range Measures {
		if n := testing.AllocsPerRun(100, func() { sinkF = SegmentError(m, tr, 10, 250) }); n != 0 {
			t.Errorf("%v: SegmentError allocates %v times per call, want 0", m, n)
		}
	}
}
