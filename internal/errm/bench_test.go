package errm

import (
	"fmt"
	"math/rand"
	"testing"

	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/traj"
)

func benchTraj(n int) traj.Trajectory {
	r := rand.New(rand.NewSource(1))
	t := make(traj.Trajectory, n)
	x, y := 0.0, 0.0
	for i := range t {
		x += r.Float64()*10 - 4
		y += r.Float64()*10 - 5
		t[i] = geo.Pt(x, y, float64(i)*3)
	}
	return t
}

var sinkF float64

// BenchmarkSegmentError measures the span scan behind n' in the paper's
// complexity analysis: every measure at a typical span width (20 points)
// and a wide one (200 points), on a dense Geolife-profile trajectory.
func BenchmarkSegmentError(b *testing.B) {
	t := gen.New(gen.Geolife(), 1).Trajectory(1000)
	for _, m := range Measures {
		for _, w := range []int{20, 200} {
			b.Run(fmt.Sprintf("%v/span=%d", m, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkF = SegmentError(m, t, 100, 100+w)
				}
			})
		}
	}
}

func BenchmarkOnlineValue(b *testing.B) {
	t := benchTraj(10)
	for _, m := range Measures {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = OnlineValue(m, t[0], t[1], t[2])
			}
		})
	}
}

// BenchmarkTrackerDrop measures the incremental reward-computation cost
// per MDP transition during training.
func BenchmarkTrackerDrop(b *testing.B) {
	t := benchTraj(10000)
	r := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; {
		b.StopTimer()
		tk := NewFullTracker(SED, t)
		b.StartTimer()
		for tk.Count() > len(t)/2 && i < b.N {
			kept := tk.Kept()
			tk.Drop(kept[1+r.Intn(len(kept)-2)])
			i++
		}
	}
}

// BenchmarkFullError measures the evaluation-side error computation the
// harness performs after every simplification.
func BenchmarkFullError(b *testing.B) {
	t := benchTraj(5000)
	kept := make([]int, 0, 500)
	for i := 0; i < 5000; i += 10 {
		kept = append(kept, i)
	}
	kept = append(kept, 4999)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = Error(SED, t, kept)
	}
}
