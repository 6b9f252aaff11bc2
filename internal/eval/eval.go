// Package eval is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (§VI) on the synthetic dataset
// substrate, at a configurable scale.
//
// Each experiment is a function from a Context (scale, seed, cached
// policies, log sink) to a Table that prints the same rows/series the
// paper reports. cmd/rlts-bench exposes them by experiment id and the
// root bench_test.go wires each into a testing.B benchmark.
package eval

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/traj"
)

// Scale sizes an experiment run. The paper's full scale (1,000 evaluation
// trajectories of 5,000 points, 1,000 training trajectories, 10M training
// transitions) takes hours; the default scale preserves every comparison's
// shape in seconds-to-minutes.
type Scale struct {
	Name string

	TrainTrajectories int // trajectories in the training repository
	TrainLen          int // points per training trajectory
	Episodes          int // episodes per trajectory per epoch
	Epochs            int // passes over the training repository

	EvalTrajectories int // trajectories per evaluation set
	EvalLen          int // points per evaluation trajectory

	// Efficiency experiments (Figs. 5, 6, scalability).
	EffLens    []int // |T| sweep for Fig. 5
	EffFixedW  float64
	EffLenForW int // |T| for Fig. 6
	LongestLen int // scalability trajectory length (paper: ~383,000)
	Repeats    int // timing repetitions
}

// QuickScale is sized for unit tests and benchmarks: everything in
// hundreds of points.
func QuickScale() Scale {
	return Scale{
		Name:              "quick",
		TrainTrajectories: 12,
		TrainLen:          100,
		Episodes:          8,
		Epochs:            2,
		EvalTrajectories:  8,
		EvalLen:           200,
		EffLens:           []int{400, 800, 1200},
		EffFixedW:         0.1,
		EffLenForW:        800,
		LongestLen:        3000,
		Repeats:           1,
	}
}

// DefaultScale is the container-friendly default of cmd/rlts-bench.
// Training trajectories match the evaluation length: the buffer dynamics
// the policy sees during training should match those at deployment, and
// at this miniature scale that alignment is what separates the learned
// policy from a random one.
func DefaultScale() Scale {
	return Scale{
		Name:              "default",
		TrainTrajectories: 60,
		TrainLen:          1000,
		Episodes:          10,
		Epochs:            5,
		EvalTrajectories:  40,
		EvalLen:           1000,
		EffLens:           []int{2000, 4000, 6000, 8000, 10000},
		EffFixedW:         0.1,
		EffLenForW:        8000,
		LongestLen:        40000,
		Repeats:           2,
	}
}

// PaperScale mirrors the paper's setup. Expect multi-hour runtimes.
func PaperScale() Scale {
	return Scale{
		Name:              "paper",
		TrainTrajectories: 1000,
		TrainLen:          1000,
		Episodes:          10,
		Epochs:            1,
		EvalTrajectories:  1000,
		EvalLen:           5000,
		EffLens:           []int{10000, 20000, 30000, 40000, 50000},
		EffFixedW:         0.1,
		EffLenForW:        40000,
		LongestLen:        383000,
		Repeats:           3,
	}
}

// ScaleByName resolves "quick", "default" or "paper".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale(), nil
	case "", "default":
		return DefaultScale(), nil
	case "paper":
		return PaperScale(), nil
	}
	return Scale{}, fmt.Errorf("eval: unknown scale %q (want quick, default or paper)", name)
}

// Context carries shared state across experiments: the scale, the RNG
// seed, a policy cache (training is the expensive part and most
// experiments reuse the same policies) and an optional log sink.
type Context struct {
	Scale Scale
	Seed  int64
	Log   io.Writer
	// Workers bounds the goroutines used for evaluation runs and policy
	// training (0 = GOMAXPROCS, 1 = fully serial). Results are
	// deterministic for any value.
	Workers int
	// BatchWidth, when positive, evaluates trained policies through the
	// lockstep core.BatchEngine runner with shards of this many
	// trajectories instead of one Simplify call per trajectory. Reported
	// errors are identical at every width (see RunSetBatched); timing
	// reflects the batched execution.
	BatchWidth int
	// FastKernel, when set, evaluates trained policies on their FastMath
	// clones (core.Trained.FastClone): fused approximate kernels with the
	// measured divergence bounds of DESIGN.md §13. Baselines are
	// unaffected. Reported errors may differ from exact evaluation within
	// those bounds (in practice they match: argmax decisions are stable
	// across the adversarial families).
	FastKernel bool

	policies map[string]*core.Trained
	datasets map[string][]traj.Trajectory
}

// NewContext creates an experiment context.
func NewContext(s Scale, seed int64, log io.Writer) *Context {
	return &Context{
		Scale:    s,
		Seed:     seed,
		Log:      log,
		policies: make(map[string]*core.Trained),
		datasets: make(map[string][]traj.Trajectory),
	}
}

func (c *Context) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format, args...)
	}
}

// TrainData returns (and caches) the training repository for a dataset
// profile.
func (c *Context) TrainData(profile gen.Config) []traj.Trajectory {
	key := "train/" + profile.Name
	if d, ok := c.datasets[key]; ok {
		return d
	}
	g := gen.New(profile, c.Seed)
	d := g.Dataset(c.Scale.TrainTrajectories, c.Scale.TrainLen)
	c.datasets[key] = d
	return d
}

// EvalData returns (and caches) an evaluation set for a dataset profile
// with the given trajectory length.
func (c *Context) EvalData(profile gen.Config, count, n int) []traj.Trajectory {
	key := fmt.Sprintf("eval/%s/o%g-%g/%d/%d", profile.Name, profile.OutlierProb, profile.OutlierScale, count, n)
	if d, ok := c.datasets[key]; ok {
		return d
	}
	g := gen.New(profile, c.Seed+1000)
	d := g.Dataset(count, n)
	c.datasets[key] = d
	return d
}

// Policy returns (and caches) a trained policy for the given options,
// trained on the Geolife profile as the paper does.
func (c *Context) Policy(opts core.Options) (*core.Trained, error) {
	key := fmt.Sprintf("%s/%s/k%d/j%d", opts.Name(), opts.Measure, opts.K, opts.J)
	if p, ok := c.policies[key]; ok {
		return p, nil
	}
	start := time.Now()
	to := core.DefaultTrainOptions()
	to.RL.Episodes = c.Scale.Episodes
	to.RL.Epochs = c.Scale.Epochs
	to.RL.Seed = c.Seed
	to.RL.Workers = c.Workers
	tr, _, err := core.Train(c.TrainData(gen.Geolife()), opts, to)
	if err != nil {
		return nil, fmt.Errorf("eval: training %s/%s: %w", opts.Name(), opts.Measure, err)
	}
	c.logf("eval: trained %s in %v\n", key, time.Since(start).Round(time.Millisecond))
	c.policies[key] = tr
	return tr, nil
}

// Algorithm is a named simplifier under evaluation.
type Algorithm struct {
	Name string
	Run  func(t traj.Trajectory, w int) ([]int, error)
}

// runSet evaluates an algorithm over a dataset honouring the context's
// worker budget; the experiments call this instead of RunSet directly so a
// single -workers flag steers the whole harness. a.Run must be safe for
// concurrent use when the budget exceeds one worker (see rlts).
func (c *Context) runSet(a Algorithm, data []traj.Trajectory, wRatio float64, m errm.Measure) (MeasureResult, error) {
	return RunSetParallel(a, data, wRatio, m, c.Workers)
}

// rlts wraps a trained policy as an Algorithm for the harness. It always
// uses the concurrency-safe wrapper — its sampling RNG derives from each
// trajectory's identity rather than a shared stream, so the reported
// errors are identical at every -workers setting, serial included.
func (c *Context) rlts(tr *core.Trained) Algorithm {
	return RLTSAlgorithmConcurrent(tr, c.Seed)
}

// MeasureResult is one (algorithm, setting) cell: mean error and timing.
type MeasureResult struct {
	Algorithm string
	MeanErr   float64
	Total     time.Duration
	Points    int
}

// PerPoint returns the average processing time per input point.
func (r MeasureResult) PerPoint() time.Duration {
	if r.Points == 0 {
		return 0
	}
	return r.Total / time.Duration(r.Points)
}

// RunSet evaluates an algorithm over a dataset at budget ratio wRatio and
// returns the mean error under measure m plus total wall-clock time. It
// is RunSetParallel on one worker: trajectories run in dataset order, so
// an algorithm that shares state across calls (a single sampling RNG, a
// policy's forward scratch) sees the same call sequence as a plain loop.
func RunSet(a Algorithm, data []traj.Trajectory, wRatio float64, m errm.Measure) (MeasureResult, error) {
	return RunSetParallel(a, data, wRatio, m, 1)
}

func budget(n int, ratio float64) int {
	w := int(ratio * float64(n))
	if w < 2 {
		w = 2
	}
	return w
}

// Table is the printable result of an experiment.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// fmtErr formats an error value compactly.
func fmtErr(v float64) string { return fmt.Sprintf("%.4g", v) }

// fmtDur formats a duration compactly.
func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }

// fmtDurFine formats sub-microsecond durations (per-point costs) without
// losing resolution.
func fmtDurFine(d time.Duration) string { return d.String() }

// sortedKeys returns map keys in sorted order (for deterministic tables).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
