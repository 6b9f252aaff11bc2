package eval

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/traj"
)

// RunSetParallel is the one per-trajectory runner: it spreads the work
// over workers goroutines (0 = GOMAXPROCS) and sums the per-trajectory
// errors in dataset order, so MeanErr is bit-identical at every worker
// count. a.Run must be safe for concurrent use when workers > 1: the
// baseline algorithms are; for a trained policy use
// RLTSAlgorithmConcurrent.
//
// The reported Total is the summed per-trajectory wall-clock, not the
// elapsed time of the parallel run.
func RunSetParallel(a Algorithm, data []traj.Trajectory, wRatio float64, m errm.Measure, workers int) (MeasureResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(data) {
		workers = len(data)
	}
	type cell struct {
		err      error
		measured float64
		dur      time.Duration
		points   int
	}
	cells := make([]cell, len(data))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := data[i]
				budget := budget(len(t), wRatio)
				start := time.Now()
				kept, err := a.Run(t, budget)
				cells[i].dur = time.Since(start)
				cells[i].points = len(t)
				if err == nil {
					// A malformed index set would silently skew the mean
					// error (or panic inside errm.Error); surface it as a
					// typed per-trajectory failure instead.
					err = errm.CheckKept(t, kept)
				}
				if err != nil {
					cells[i].err = err
					continue
				}
				cells[i].measured = errm.Error(m, t, kept)
			}
		}()
	}
	for i := range data {
		next <- i
	}
	close(next)
	wg.Wait()

	res := MeasureResult{Algorithm: a.Name}
	for i, c := range cells {
		if c.err != nil {
			return res, fmt.Errorf("eval: %s: trajectory %d: %w", a.Name, i, c.err)
		}
		res.MeanErr += c.measured
		res.Total += c.dur
		res.Points += c.points
	}
	if len(data) > 0 {
		res.MeanErr /= float64(len(data))
	}
	return res, nil
}

// RLTSAlgorithmConcurrent wraps a trained policy as a concurrency-safe
// Algorithm: each Run call derives its own sampling RNG from the base
// seed and the trajectory's identity, so results are deterministic
// regardless of scheduling. The policy network itself is read-only at
// inference time except for layer scratch buffers, so each goroutine gets
// its own clone.
func RLTSAlgorithmConcurrent(tr *core.Trained, seed int64) Algorithm {
	pool := sync.Pool{New: func() interface{} {
		return &core.Trained{Opts: tr.Opts, Policy: tr.Policy.Clone()}
	}}
	return Algorithm{
		Name: tr.Opts.Name(),
		Run: func(t traj.Trajectory, w int) ([]int, error) {
			// Derive the sampling RNG from the trajectory identity so the
			// result does not depend on goroutine scheduling.
			r := rand.New(rand.NewSource(trajSeed(seed, t)))
			c := pool.Get().(*core.Trained)
			defer pool.Put(c)
			return c.Simplify(t, w, r)
		},
	}
}

// trajSeed derives a deterministic per-trajectory sampling seed from the
// base seed and the trajectory's identity (length plus first/last
// coordinates). The coordinates enter through math.Float64bits: a direct
// int64(x) conversion is implementation-defined once x leaves the int64
// range, and the adversarial ±6e307 coordinates the differential harness
// generates do exactly that — Float64bits is total, so the derived
// stream is the same on every platform and for every value. The batched
// eval runner shares this derivation, which is what makes its sampled
// results bit-identical to the per-trajectory path.
func trajSeed(seed int64, t traj.Trajectory) int64 {
	h := seed
	if len(t) > 0 {
		h = h*31 + int64(len(t))
		h = h*31 + int64(math.Float64bits(t[0].X))
		h = h*31 + int64(math.Float64bits(t[len(t)-1].Y))
	}
	return h
}
