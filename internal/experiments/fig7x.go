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

// migrateOnceMode generalizes MigrateOnce over the three modes, returning
// the run's telemetry report with its breakdown.
func migrateOnceMode(w workloads.Workload, c workloads.Class, frac float64, mode migMode) (*cluster.Breakdown, *obs.Report, error) {
	f, err := newFixture(w, c)
	if err != nil {
		return nil, nil, err
	}
	p, total, err := f.runToFraction(frac)
	if err != nil {
		return nil, nil, err
	}
	if p == nil {
		return nil, nil, fmt.Errorf("%s finished before the %.0f%% checkpoint", w.Name, frac*100)
	}
	// Run ~5% of the workload between pre-copy rounds so deltas are real.
	pre := &cluster.PreCopyOpts{RoundBudget: total/20 + 1}
	var run func(*kernel.Process) error
	if mode == modeLazy {
		// Finish the run so the lazy page traffic is realized.
		run = f.pi.K.Run
	}
	return f.migrate(p, mode, pre, run)
}

// migrateRediskaMode loads db keys into the server and migrates it in the
// given mode. Queries after the migration realize post-copy's paging
// traffic; for pre-copy, a write burst per round keeps the server dirtying
// pages while the chain is in flight.
func migrateRediskaMode(c workloads.Class, db uint64, mode migMode) (*cluster.Breakdown, *obs.Report, error) {
	w, err := workloads.Get("rediska")
	if err != nil {
		return nil, nil, err
	}
	f, err := newFixture(w, c)
	if err != nil {
		return nil, nil, err
	}
	p, err := f.xeon.Start(w.Name)
	if err != nil {
		return nil, nil, err
	}
	p.PushInput(workloads.RediskaLoad(db))
	if err := f.drain(p); err != nil {
		return nil, nil, err
	}
	pre := &cluster.PreCopyOpts{
		RunUntilIdle: true,
		BetweenRounds: func(p *kernel.Process, round int) {
			// 32 overwrites per round dirty a bounded working set.
			for i := uint64(0); i < 32; i++ {
				k := (uint64(round)*32 + i) % db
				p.PushInput(workloads.RediskaSet(1000000+7*k, k))
			}
		},
	}
	return f.migrate(p, mode, pre, func(dst *kernel.Process) error {
		// Query every 10th key to realize post-copy traffic.
		for k := uint64(0); k < db; k += 10 {
			dst.PushInput(workloads.RediskaGet(1000000 + 7*k))
		}
		dst.CloseInput()
		return f.pi.K.Run(dst)
	})
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
