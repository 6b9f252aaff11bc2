package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rlts"
	"rlts/internal/core"
	"rlts/pretrained"
)

// op is one timed operation of a workload's measured window.
type op struct {
	start  time.Duration // offset from the window's start
	dur    time.Duration
	points int  // input points the operation carried
	ok     bool // answered and verified
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd assembles the shared end-to-end metric set from the measured
// window's operations.
//
// points_per_s counts only operations whose result passed verification.
// It is the median over the window's one-second slices of the points
// processed per second, each operation's points credited to the slices
// pro rata to the time it was in flight: a host stall of a second or two
// moves a slice or two, not the median, and large operations are not
// quantized into whichever slice they happen to end in. latency_p90_ms is
// likewise the median of the p90s of consecutive groups of at least 100
// operations (by start time), so one stalled stretch of the shared host
// does not set it; latency_p50_ms is the median of all operations.
func endToEnd(ops []op, window time.Duration, setup, rssMB, errMean float64) (*result, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("no operation completed in the measured window")
	}
	slices := int(math.Round(window.Seconds()))
	if slices < 1 {
		slices = 1
	}
	width := window / time.Duration(slices)
	credit := make([]float64, slices)
	lat := make([]float64, 0, len(ops))
	failed := 0
	for _, o := range ops {
		lat = append(lat, ms(o.dur))
		if !o.ok {
			failed++
			continue
		}
		end := o.start + o.dur
		for s := int(o.start / width); s < slices && time.Duration(s)*width < end; s++ {
			lo, hi := time.Duration(s)*width, time.Duration(s+1)*width
			if o.start > lo {
				lo = o.start
			}
			if end < hi {
				hi = end
			}
			if hi > lo && o.dur > 0 {
				credit[s] += float64(o.points) * float64(hi-lo) / float64(o.dur)
			}
		}
	}
	for s := range credit {
		credit[s] /= width.Seconds()
	}
	byStart := append([]op(nil), ops...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].start < byStart[j].start })
	groups := len(byStart) / 100
	if groups < 1 {
		groups = 1
	}
	var p90s []float64
	for g := 0; g < groups; g++ {
		part := byStart[g*len(byStart)/groups : (g+1)*len(byStart)/groups]
		gl := make([]float64, len(part))
		for i, o := range part {
			gl[i] = ms(o.dur)
		}
		p90s = append(p90s, quantile(gl, 0.9))
	}
	return &result{
		Correct:   failed == 0,
		Attempted: len(ops),
		Failed:    failed,
		Metrics: map[string]metric{
			"points_per_s":   {median(credit), "points/s"},
			"latency_p50_ms": {quantile(lat, 0.5), "ms"},
			"latency_p90_ms": {median(p90s), "ms"},
			"setup_s":        {setup, "s"},
			"peak_rss_mb":    {rssMB, "MiB"},
			"error_mean":     {errMean, "m"},
		},
	}, nil
}

// vmHWM reads a process's peak resident set size in MiB.
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// appendPoints writes points as a JSON array of [x,y,t] triples with the
// shortest representation that round-trips every float exactly.
func appendPoints(b []byte, pts [][3]float64) []byte {
	b = append(b, '[')
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range p {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// window is the measured window's length: --seconds after the warm-up.
func window(e *env) time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// loadPolicy returns an embedded pretrained policy.
func loadPolicy(m rlts.Measure, v rlts.Variant) (*core.Trained, error) {
	p, err := pretrained.Load(m, v)
	if err != nil {
		return nil, fmt.Errorf("load embedded policy: %w", err)
	}
	return p.Internal(), nil
}

// parallel runs f(i) for i in [0, n) on nproc goroutines.
func parallel(n int, f func(worker, i int)) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				f(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// loadClients is the closed-loop client count: two callers, never more
// than the machine has CPUs.
func loadClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
