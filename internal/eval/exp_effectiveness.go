package eval

import (
	"fmt"
	"math/rand"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

// Table1 reproduces Table I: the summary statistics of the three dataset
// substitutes.
func Table1(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "table1",
		Title:   "Dataset statistics (synthetic substitutes for Geolife / T-Drive / Truck)",
		Columns: []string{"Statistic", "Geolife", "T-Drive", "Truck"},
	}
	var rows [6][4]string
	rows[0][0] = "# of trajectories"
	rows[1][0] = "Total # of points"
	rows[2][0] = "Avg points/trajectory"
	rows[3][0] = "Sampling rate (avg, s)"
	rows[4][0] = "Average distance"
	rows[5][0] = "Paper's avg distance"
	paperDist := []string{"9.96m", "623m", "82.74m"}
	for pi, profile := range gen.Profiles() {
		d := c.EvalData(profile, c.Scale.EvalTrajectories, c.Scale.EvalLen)
		s := traj.Summarize(d)
		rows[0][pi+1] = fmt.Sprintf("%d", s.NumTrajectories)
		rows[1][pi+1] = fmt.Sprintf("%d", s.TotalPoints)
		rows[2][pi+1] = fmt.Sprintf("%.0f", s.AvgPoints)
		rows[3][pi+1] = fmt.Sprintf("%.1f", s.AvgSampleRate)
		rows[4][pi+1] = fmt.Sprintf("%.1fm", s.AvgDistance)
		rows[5][pi+1] = paperDist[pi]
	}
	for _, r := range rows {
		tb.AddRow(r[0], r[1], r[2], r[3])
	}
	tb.Notes = append(tb.Notes,
		"counts are scaled down from the paper (17,621 / 10,359 / 10,110 trajectories); sampling rate and distance character match Table I")
	return tb, nil
}

// ExpBellman reproduces §VI-B(1): RLTS+ and RLTS-Skip+ against the exact
// Bellman algorithm on short trajectories — errors should be close while
// the RL methods run orders of magnitude faster.
func ExpBellman(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "bellman",
		Title:   "Comparison with the exact algorithm Bellman (batch mode, short trajectories)",
		Columns: []string{"Measure", "Algorithm", "Mean error", "Total time"},
	}
	// Short trajectories as in the paper (~300 points; scaled here).
	n := c.Scale.TrainLen
	if n > 300 {
		n = 300
	}
	count := c.Scale.EvalTrajectories
	if count > 100 {
		count = 100
	}
	data := c.EvalData(gen.Geolife(), count, n)
	const wRatio = 0.1
	for _, m := range errm.Measures {
		algos := []Algorithm{BellmanAlgorithm(m)}
		for _, j := range []int{0, 2} {
			opts := core.Options{Measure: m, Variant: core.Plus, K: 3, J: j}
			tr, err := c.Policy(opts)
			if err != nil {
				return nil, err
			}
			algos = append(algos, c.rlts(tr))
		}
		for _, a := range algos {
			res, err := c.runSet(a, data, wRatio, m)
			if err != nil {
				return nil, err
			}
			tb.AddRow(m.String(), a.Name, fmtErr(res.MeanErr), fmtDur(res.Total))
		}
	}
	tb.Notes = append(tb.Notes, "paper: RLTS+ error within a few percent of Bellman; ~3 orders of magnitude faster")
	return tb, nil
}

// Fig3 reproduces Figure 3: the RLTS variant family against Bottom-Up in
// the batch mode under SED — effectiveness rises and efficiency falls from
// RLTS to RLTS+ to RLTS++.
func Fig3(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "fig3",
		Title:   "Variants of RLTS (batch mode, SED)",
		Columns: []string{"Algorithm", "Mean SED error", "Total time"},
	}
	data := c.EvalData(gen.Geolife(), c.Scale.EvalTrajectories, c.Scale.EvalLen)
	const wRatio = 0.1
	m := errm.SED
	var algos []Algorithm
	for _, j := range []int{0, 2} {
		for _, v := range []core.Variant{core.Online, core.Plus, core.PlusPlus} {
			opts := core.Options{Measure: m, Variant: v, K: 3, J: j}
			tr, err := c.Policy(opts)
			if err != nil {
				return nil, err
			}
			algos = append(algos, c.rlts(tr))
		}
	}
	algos = append(algos, BatchBaselines(m)...)
	for _, a := range algos {
		res, err := c.runSet(a, data, wRatio, m)
		if err != nil {
			return nil, err
		}
		tb.AddRow(a.Name, fmtErr(res.MeanErr), fmtDur(res.Total))
	}
	tb.Notes = append(tb.Notes, "paper: error improves and time grows from RLTS to RLTS+ to RLTS++; RLTS+ dominates Bottom-Up on both axes")
	return tb, nil
}

// Fig4 reproduces Figure 4: effectiveness vs the storage budget W
// (0.1..0.5 of |T|) under all four measures, online and batch.
func Fig4(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "fig4",
		Title:   "Effectiveness vs W (Geolife substitute; mean error per trajectory)",
		Columns: []string{"Mode", "Measure", "Algorithm", "W=0.1", "W=0.2", "W=0.3", "W=0.4", "W=0.5"},
	}
	data := c.EvalData(gen.Geolife(), c.Scale.EvalTrajectories, c.Scale.EvalLen)
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5}

	type group struct {
		mode    string
		variant core.Variant
		base    func(errm.Measure) []Algorithm
	}
	groups := []group{
		{"online", core.Online, OnlineBaselines},
		{"batch", core.Plus, BatchBaselines},
	}
	for _, g := range groups {
		for _, m := range errm.Measures {
			var algos []Algorithm
			for _, j := range []int{0, 2} {
				opts := core.Options{Measure: m, Variant: g.variant, K: 3, J: j}
				tr, err := c.Policy(opts)
				if err != nil {
					return nil, err
				}
				algos = append(algos, c.rlts(tr))
			}
			algos = append(algos, g.base(m)...)
			for _, a := range algos {
				row := []string{g.mode, m.String(), a.Name}
				for _, ratio := range ratios {
					res, err := c.runSet(a, data, ratio, m)
					if err != nil {
						return nil, err
					}
					row = append(row, fmtErr(res.MeanErr))
				}
				tb.AddRow(row...)
			}
		}
	}
	tb.Notes = append(tb.Notes,
		"paper: RLTS (online) and RLTS+ (batch) beat every baseline at every W under every measure; errors shrink as W grows")
	return tb, nil
}

// ExpPolicy reproduces §VI-B(4): the contribution of the learned policy —
// the trained network against a uniformly random policy over the same
// action space, and against the always-drop-min heuristic.
func ExpPolicy(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "policy",
		Title:   "Learned policy vs random policy (online mode, SED)",
		Columns: []string{"Policy", "Mean SED error"},
	}
	data := c.EvalData(gen.Geolife(), c.Scale.EvalTrajectories, c.Scale.EvalLen)
	m := errm.SED
	opts := core.DefaultOptions(m, core.Online)
	const wRatio = 0.1

	tr, err := c.Policy(opts)
	if err != nil {
		return nil, err
	}
	learned, err := c.runSetPolicy(tr, data, wRatio, m)
	if err != nil {
		return nil, err
	}
	tb.AddRow("learned (RLTS)", fmtErr(learned.MeanErr))

	// Uniform-random over the k candidate actions. Serial RunSet: the
	// algorithm shares one RNG across Run calls.
	r := rand.New(rand.NewSource(c.Seed + 7))
	randomRes, err := RunSet(randomPolicyAlgorithm(opts, r), data, wRatio, m)
	if err != nil {
		return nil, err
	}
	tb.AddRow("random", fmtErr(randomRes.MeanErr))

	// Untrained network (random weights, sampled).
	untrained, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 20, rand.New(rand.NewSource(c.Seed+13)))
	if err != nil {
		return nil, err
	}
	ua := Algorithm{Name: "untrained-net", Run: func(t traj.Trajectory, w int) ([]int, error) {
		return core.Simplify(untrained, t, w, opts, true, r)
	}}
	// Serial RunSet: the closure shares one policy (whose network scratch is
	// not concurrency-safe) and one RNG across Run calls.
	ur, err := RunSet(ua, data, wRatio, m)
	if err != nil {
		return nil, err
	}
	tb.AddRow("untrained network", fmtErr(ur.MeanErr))

	// Deterministic drop-the-minimum (the hand-crafted rule the RL policy
	// replaces, i.e. action 0 always).
	dm := Algorithm{Name: "drop-min", Run: func(t traj.Trajectory, w int) ([]int, error) {
		return core.SimplifyFixedAction(t, w, opts, 0)
	}}
	dr, err := c.runSet(dm, data, wRatio, m)
	if err != nil {
		return nil, err
	}
	tb.AddRow("always drop min", fmtErr(dr.MeanErr))

	tb.Notes = append(tb.Notes, "paper: the learned policy contributes significantly, especially online")
	return tb, nil
}

// ExpK reproduces §VI-B(5): the effect of the state size k.
func ExpK(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "k",
		Title:   "Effect of parameter k (online mode, SED)",
		Columns: []string{"k", "Mean SED error", "Total time"},
	}
	data := c.EvalData(gen.Geolife(), c.Scale.EvalTrajectories, c.Scale.EvalLen)
	m := errm.SED
	for _, k := range []int{1, 2, 3, 4, 5} {
		opts := core.Options{Measure: m, Variant: core.Online, K: k}
		tr, err := c.Policy(opts)
		if err != nil {
			return nil, err
		}
		res, err := c.runSetPolicy(tr, data, 0.1, m)
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprintf("%d", k), fmtErr(res.MeanErr), fmtDur(res.Total))
	}
	tb.Notes = append(tb.Notes, "paper: accuracy improves and time grows with k; k=3 is the default trade-off")
	return tb, nil
}

// ExpJ reproduces §VI-B(6): the effect of the skip horizon J.
func ExpJ(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "j",
		Title:   "Effect of parameter J (online mode, SED; J=0 is plain RLTS)",
		Columns: []string{"J", "Mean SED error", "Total time"},
	}
	data := c.EvalData(gen.Geolife(), c.Scale.EvalTrajectories, c.Scale.EvalLen)
	m := errm.SED
	for _, j := range []int{0, 1, 2, 3, 4} {
		opts := core.Options{Measure: m, Variant: core.Online, K: 3, J: j}
		tr, err := c.Policy(opts)
		if err != nil {
			return nil, err
		}
		res, err := c.runSetPolicy(tr, data, 0.1, m)
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprintf("%d", j), fmtErr(res.MeanErr), fmtDur(res.Total))
	}
	tb.Notes = append(tb.Notes, "paper: as J grows, effectiveness degrades slightly and efficiency improves")
	return tb, nil
}

func randomPolicyAlgorithm(opts core.Options, r *rand.Rand) Algorithm {
	return Algorithm{
		Name: "random",
		Run: func(t traj.Trajectory, w int) ([]int, error) {
			return core.SimplifyRandom(t, w, opts, r)
		},
	}
}
