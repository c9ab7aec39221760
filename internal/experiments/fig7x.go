package experiments

import (
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// migMode selects a restoration mode for the three-way comparison of
// fig7x: vanilla (copy-all), lazy (post-copy), or pre-copy (iterative
// incremental rounds).
type migMode int

const (
	modeVanilla migMode = iota
	modeLazy
	modePreCopy
)

func (m migMode) String() string {
	switch m {
	case modeLazy:
		return "lazy"
	case modePreCopy:
		return "precopy"
	default:
		return "vanilla"
	}
}

// migrateOnceMode generalizes MigrateOnce over the three modes. Every
// migration runs with a fresh obs registry attached; the returned report
// carries the span tree and transport counters for the run.
func migrateOnceMode(w workloads.Workload, c workloads.Class, frac float64, mode migMode) (_ *cluster.Breakdown, _ *obs.Report, err error) {
	xeon, pi, err := newPairOfNodes(w, c)
	if err != nil {
		return nil, nil, err
	}
	p, total, err := runToFraction(xeon, w.Name, frac)
	if err != nil {
		return nil, nil, err
	}
	if p == nil {
		return nil, nil, fmt.Errorf("%s finished before the %.0f%% checkpoint", w.Name, frac*100)
	}
	pair, err := workloads.CompilePair(w, c)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.New()
	opts := cluster.MigrateOpts{Obs: reg}
	switch mode {
	case modeLazy:
		opts.Lazy, opts.LazyTCP = true, LazyTCP
	case modePreCopy:
		// Run ~5% of the workload between rounds so deltas are real.
		opts.PreCopy = &cluster.PreCopyOpts{RoundBudget: total/20 + 1}
	}
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, opts)
	if err != nil {
		return nil, nil, err
	}
	// Leaked lazy plumbing must fail the experiment, not silently skew
	// later measurements sharing the process.
	defer func() {
		if cerr := res.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// Finish the run so the lazy page traffic is realized.
	if mode == modeLazy {
		if err := pi.K.Run(res.Proc); err != nil {
			return nil, nil, fmt.Errorf("post-migration: %w", err)
		}
		res.FinalizeLazyStats()
	}
	return &res.Breakdown, reg.Report(), nil
}

// migrateRediskaMode loads db keys into the server and migrates it in the
// given mode. For lazy, post-migration queries realize the paging traffic;
// for pre-copy, a write burst per round keeps the server dirtying pages
// while the chain is in flight.
func migrateRediskaMode(c workloads.Class, db uint64, mode migMode) (_ *cluster.Breakdown, _ *obs.Report, err error) {
	w, err := workloads.Get("rediska")
	if err != nil {
		return nil, nil, err
	}
	xeon, pi, err := newPairOfNodes(w, c)
	if err != nil {
		return nil, nil, err
	}
	pair, err := workloads.CompilePair(w, c)
	if err != nil {
		return nil, nil, err
	}
	p, err := xeon.Start(w.Name)
	if err != nil {
		return nil, nil, err
	}
	p.PushInput(workloads.RediskaLoad(db))
	for i := 0; i < 5_000_000; i++ {
		st, err := xeon.K.Step(p)
		if err != nil {
			return nil, nil, err
		}
		if st.Blocked == 1 && p.PendingInput() == 0 {
			break
		}
	}
	p.TakeOutput()
	reg := obs.New()
	opts := cluster.MigrateOpts{Obs: reg}
	switch mode {
	case modeLazy:
		opts.Lazy, opts.LazyTCP = true, LazyTCP
	case modePreCopy:
		opts.PreCopy = &cluster.PreCopyOpts{
			RunUntilIdle: true,
			BetweenRounds: func(p *kernel.Process, round int) {
				// 32 overwrites per round dirty a bounded working set.
				for i := uint64(0); i < 32; i++ {
					k := (uint64(round)*32 + i) % db
					p.PushInput(workloads.RediskaSet(1000000+7*k, k))
				}
			},
		}
	}
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, opts)
	if err != nil {
		return nil, nil, err
	}
	// As in migrateOnceMode: leaked lazy plumbing fails the experiment.
	defer func() {
		if cerr := res.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	p2 := res.Proc
	// Query every 10th key to realize post-copy traffic.
	for k := uint64(0); k < db; k += 10 {
		p2.PushInput(workloads.RediskaGet(1000000 + 7*k))
	}
	p2.CloseInput()
	if err := pi.K.Run(p2); err != nil {
		return nil, nil, err
	}
	if mode == modeLazy {
		res.FinalizeLazyStats()
	}
	return &res.Breakdown, reg.Report(), nil
}

// Fig7x extends Fig. 7 with the restoration mode the paper leaves
// unexplored: vanilla vs lazy vs iterative pre-copy, reporting downtime
// (pause to resume) separately from the end-to-end migration cost. Class A
// is forced for the same reason as Fig7.
func Fig7x(_ workloads.Class) (*Table, error) {
	c := workloads.ClassA
	t := &Table{
		ID:        "fig7x",
		Title:     "vanilla vs lazy vs pre-copy migration: downtime and end-to-end cost",
		Header:    []string{"case", "mode", "downtime(ms)", "total(ms)", "rounds", "precopy(KiB)", "images(KiB)", "postcopy(KiB)", "fault-p95(us)"},
		Telemetry: map[string]*obs.Report{},
	}
	modes := []migMode{modeVanilla, modeLazy, modePreCopy}
	addRow := func(label string, mode migMode, bd *cluster.Breakdown, rep *obs.Report) error {
		// The time columns come from the telemetry span tree, not from the
		// Breakdown: the spans ARE the accounting now, and a divergence
		// between the two is a bug worth failing the experiment over.
		// Read under the modeled root: the host tree ("migrate.host") has
		// a downtime span of its own.
		root, _ := rep.Span("migration")
		dt, _ := rep.Child(root.ID, "downtime")
		downtime, total := dt.Dur(), root.Dur()
		if downtime != bd.Downtime || total != bd.MigrationTime() {
			return fmt.Errorf("span tree disagrees with breakdown: downtime %v vs %v, total %v vs %v",
				downtime, bd.Downtime, total, bd.MigrationTime())
		}
		faultP95 := time.Duration(rep.Histograms["fault.service_ns"].P95Ns)
		t.Rows = append(t.Rows, []string{
			label, mode.String(), ms(downtime), ms(total),
			fmt.Sprintf("%d", bd.Rounds), kb(bd.PreCopyBytes), kb(bd.ImageBytes), kb(bd.LazyBytes),
			fmt.Sprintf("%.1f", float64(faultP95.Nanoseconds())/1000),
		})
		t.Telemetry[label+"/"+mode.String()] = rep
		return nil
	}
	for _, name := range []string{"cg", "mg"} {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			bd, rep, err := migrateOnceMode(w, c, 0.5, mode)
			if err != nil {
				return nil, fmt.Errorf("fig7x %s %v: %w", name, mode, err)
			}
			if err := addRow(name+"-mid", mode, bd, rep); err != nil {
				return nil, fmt.Errorf("fig7x %s %v: %w", name, mode, err)
			}
		}
	}
	for _, db := range []uint64{100, 2000, 12000} {
		for _, mode := range modes {
			bd, rep, err := migrateRediskaMode(c, db, mode)
			if err != nil {
				return nil, fmt.Errorf("fig7x rediska %d %v: %w", db, mode, err)
			}
			if err := addRow(fmt.Sprintf("rediska-%dkeys", db), mode, bd, rep); err != nil {
				return nil, fmt.Errorf("fig7x rediska %d %v: %w", db, mode, err)
			}
		}
	}
	t.Notes = append(t.Notes,
		"downtime is pause->resume; total additionally counts pre-copy rounds overlapped with execution",
		"pre-copy ships soft-dirty deltas as in_parent incremental images and pauses only for the final round",
		"time columns are read from the telemetry span tree (internal/obs); fault-p95 is the post-copy page-fault service latency")
	return t, nil
}
