// Package experiments regenerates every table and figure of the paper's
// evaluation section (Figs. 5–11 plus the §IV-B security case studies),
// producing text tables. cmd/dapper-bench prints them and writes
// EXPERIMENTS.md; the root benchmarks reuse the same primitives as
// testing.B metrics.
package experiments

import (
	"fmt"
	"strings"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/energy"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Telemetry holds the per-case obs report (counters, histograms, span
	// tree) for experiments that collect one, keyed by "case/mode". It
	// rides along in dapper-bench -jsonout so CI archives the full
	// migration telemetry next to the table.
	Telemetry map[string]*obs.Report `json:",omitempty"`
}

// String renders an aligned text table.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s: %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// ParseMarkdown reads back what Markdown (and dapper-bench -out) wrote:
// the tables of a markdown file, with their ID, title, header, rows and
// notes.
func ParseMarkdown(md string) ([]*Table, error) {
	var out []*Table
	var t *Table
	for n, line := range strings.Split(md, "\n") {
		switch {
		case strings.HasPrefix(line, "### "):
			id, title, ok := strings.Cut(line[4:], ": ")
			if !ok {
				return nil, fmt.Errorf("line %d: table heading %q is not \"### id: title\"", n+1, line)
			}
			t = &Table{ID: id, Title: title}
			out = append(out, t)
		case t == nil:
		case strings.HasPrefix(line, "| "):
			cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |"), " | ")
			switch {
			case t.Header == nil:
				t.Header = cells
			case len(t.Rows) == 0 && cells[0] == "---":
				// the rule under the header
			default:
				t.Rows = append(t.Rows, cells)
			}
		case strings.HasPrefix(line, "*") && strings.HasSuffix(line, "*") && len(line) > 1:
			t.Notes = append(t.Notes, line[1:len(line)-1])
		}
	}
	return out, nil
}

// hostMeasured names, per table, the columns read off the host — its
// clock — by the prefix of their header.
// Every other column is modeled: it is computed from guest cycles, byte
// counts and the constants of cluster/timing.go, and regenerates
// identically on any machine.
var hostMeasured = map[string][]string{
	"fig5":     {"recode-host(ms)"},
	"fig7x":    {"fault-p95(us)"},
	"fig9":     {"host(ms)"},
	"fleet":    {"wall time", "migs/sec"},
	"registry": {"pull", "restore"},
}

func (t *Table) hostColumn(header string) bool {
	for _, h := range hostMeasured[t.ID] {
		if strings.HasPrefix(header, h) {
			return true
		}
	}
	return false
}

// DiffModeled compares the modeled columns of a regenerated table with a
// stored copy of it, cell by cell, and returns one line per difference.
// Host-measured columns, titles, notes and telemetry are not compared.
func DiffModeled(got, want *Table) []string {
	var diffs []string
	if len(got.Header) != len(want.Header) || len(got.Rows) != len(want.Rows) {
		return []string{fmt.Sprintf("%s: %d columns x %d rows, stored %d x %d",
			got.ID, len(got.Header), len(got.Rows), len(want.Header), len(want.Rows))}
	}
	for c, h := range got.Header {
		if got.hostColumn(h) {
			continue
		}
		if want.Header[c] != h {
			diffs = append(diffs, fmt.Sprintf("%s: column %d is %q, stored %q", got.ID, c, h, want.Header[c]))
			continue
		}
		for r := range got.Rows {
			if g, w := got.Rows[r][c], want.Rows[r][c]; g != w {
				diffs = append(diffs, fmt.Sprintf("%s: row %d (%s) %s = %s, stored %s", got.ID, r, got.Rows[r][0], h, g, w))
			}
		}
	}
	return diffs
}

func ms(d interface{ Seconds() float64 }) string {
	return fmt.Sprintf("%.1f", d.Seconds()*1000)
}

func kb(n uint64) string { return fmt.Sprintf("%.1f", float64(n)/1024) }

// fig5Benchmarks are the single-threaded programs of the Fig. 5 sweep.
var fig5Benchmarks = []string{"cg", "mg", "ep", "ft", "is", "linpack", "dhrystone", "kmeans"}

// fixture is one program, compiled once, installed on a freshly booted
// Xeon (the source of every migration) and Pi (its destination).
type fixture struct {
	name     string
	pair     *compiler.Pair
	xeon, pi *cluster.Node
}

// boot installs pair as name on a new Xeon and a new Pi.
func boot(name string, pair *compiler.Pair) *fixture {
	f := &fixture{name: name, pair: pair, xeon: cluster.NewNode(cluster.XeonSpec), pi: cluster.NewNode(cluster.PiSpec)}
	f.xeon.Install(name, pair)
	f.pi.Install(name, pair)
	return f
}

// newFixture compiles w at class c and boots it.
func newFixture(w workloads.Workload, c workloads.Class) (*fixture, error) {
	pair, err := workloads.CompilePair(w, c)
	if err != nil {
		return nil, err
	}
	return boot(w.Name, pair), nil
}

// runToFraction measures a native run on the Xeon and replays to the
// given fraction of its cycles, returning the running process (nil if it
// finished first) and the native run's cycles.
func (f *fixture) runToFraction(frac float64) (*kernel.Process, uint64, error) {
	ref, err := f.xeon.Start(f.name)
	if err != nil {
		return nil, 0, err
	}
	if err := f.xeon.K.Run(ref); err != nil {
		return nil, 0, fmt.Errorf("native run: %w", err)
	}
	total := ref.VCycles
	p, err := f.xeon.Start(f.name)
	if err != nil {
		return nil, 0, err
	}
	alive, err := f.xeon.K.RunBudget(p, uint64(float64(total)*frac))
	if err != nil {
		return nil, 0, err
	}
	if !alive {
		return nil, total, nil
	}
	return p, total, nil
}

// drain steps a server on the Xeon until it blocks on recv with its
// input consumed, and drops what it wrote.
func (f *fixture) drain(p *kernel.Process) error {
	for i := 0; i < 50_000_000; i++ {
		st, err := f.xeon.K.Step(p)
		if err != nil {
			return err
		}
		if st.Blocked == 1 && p.PendingInput() == 0 {
			p.TakeOutput()
			return nil
		}
	}
	return fmt.Errorf("%s never drained its input", p.ExePath)
}

// migrate moves p from the Xeon to the Pi in the given mode, with a fresh
// obs registry attached; pre sets the rounds of a pre-copy. run, if set,
// gets the restored process before the migration's plumbing closes, so
// post-copy traffic it causes is counted. The returned report carries the
// span tree and transport counters of the run.
func (f *fixture) migrate(p *kernel.Process, mode migMode, pre *cluster.PreCopyOpts, run func(*kernel.Process) error) (_ *cluster.Breakdown, _ *obs.Report, err error) {
	reg := obs.New()
	opts := cluster.MigrateOpts{Obs: reg}
	switch mode {
	case modeLazy:
		opts.Lazy = true
	case modePreCopy:
		opts.PreCopy = pre
	}
	res, err := cluster.Migrate(f.xeon, f.pi, p, f.pair.Meta, opts)
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
	if run != nil {
		if err := run(res.Proc); err != nil {
			return nil, nil, fmt.Errorf("post-migration: %w", err)
		}
	}
	if mode == modeLazy {
		res.FinalizeLazyStats()
	}
	return &res.Breakdown, reg.Report(), nil
}

// MigrateOnce runs one workload to frac on the Xeon and migrates it to the
// Pi, returning the breakdown (the primitive behind Figs. 5 and 8).
func MigrateOnce(w workloads.Workload, c workloads.Class, frac float64, lazy bool) (*cluster.Breakdown, error) {
	mode := modeVanilla
	if lazy {
		mode = modeLazy
	}
	bd, _, err := migrateOnceMode(w, c, frac, mode)
	return bd, err
}

// Fig5 regenerates the cross-ISA transformation time breakdown.
func Fig5(c workloads.Class) (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "cross-ISA process transformation time breakdown (x86 -> arm)",
		Header: []string{"benchmark", "checkpoint(ms)", "recode@x86(ms)", "recode@arm(ms)", "scp(ms)", "restore(ms)", "total(ms)", "images(KiB)", "recode-host(ms)"},
	}
	pi := cluster.NewNode(cluster.PiSpec)
	for _, name := range fig5Benchmarks {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		bd, err := MigrateOnce(w, c, 0.5, false)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", name, err)
		}
		recodeArm := cluster.RecodeTime(pi, bd.ImageBytes)
		t.Rows = append(t.Rows, []string{
			name, ms(bd.Checkpoint), ms(bd.Recode), ms(recodeArm), ms(bd.Copy),
			ms(bd.Restore), ms(bd.Total()), kb(bd.ImageBytes), ms(bd.RecodeHost),
		})
	}
	t.Notes = append(t.Notes,
		"paper: checkpoint/restore < 30 ms; recode 253.69 ms avg on x86 vs 1004.91 ms on arm; scp ~300 ms over InfiniBand",
		"recode-host is the real wall time of this Go rewriter on the host machine")
	return t, nil
}

// Fig6 regenerates the end-to-end PARSEC comparison: native on each node
// versus one mid-run migration.
func Fig6(c workloads.Class) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "multithreaded PARSEC total execution time: native vs DAPPER (migrate at 50%)",
		Header: []string{"benchmark", "native-x86(ms)", "native-arm(ms)", "dapper-compute(ms)", "migration(ms)", "between?"},
	}
	for _, name := range []string{"blackscholes", "swaptions", "streamcluster"} {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		f, err := newFixture(w, c)
		if err != nil {
			return nil, err
		}
		pa, err := f.pi.Start(name)
		if err != nil {
			return nil, err
		}
		if err := f.pi.K.Run(pa); err != nil {
			return nil, err
		}
		p, native, err := f.runToFraction(0.5)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("fig6 %s finished early", name)
		}
		half1 := p.VCycles
		var half2 uint64
		bd, _, err := f.migrate(p, modeVanilla, nil, func(dst *kernel.Process) error {
			err := f.pi.K.Run(dst)
			half2 = dst.VCycles
			return err
		})
		if err != nil {
			return nil, err
		}
		tx := f.xeon.SecondsFor(native)
		ta := f.pi.SecondsFor(pa.VCycles)
		// Compute time splits across the two machines; the migration
		// pause is reported separately (the paper's totals include it,
		// but at simulator scales it would mask the compute split).
		tc := f.xeon.SecondsFor(half1) + f.pi.SecondsFor(half2)
		between := "yes"
		if tc < tx || tc > ta {
			between = "no"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f", tx*1000), fmt.Sprintf("%.2f", ta*1000),
			fmt.Sprintf("%.2f", tc*1000), ms(bd.Total()), between,
		})
	}
	t.Notes = append(t.Notes, "paper: DAPPER's total execution time lies between native x86 and native arm")
	return t, nil
}

// Fig7 regenerates the vanilla vs lazy migration comparison for CG/MG at
// three checkpoint positions and rediska at three DB sizes. Class A is
// forced: class-S footprints fit in single pages and would flatten the
// DB-size and checkpoint-position effects.
func Fig7(_ workloads.Class) (*Table, error) {
	c := workloads.ClassA
	t := &Table{
		ID:     "fig7",
		Title:  "vanilla vs lazy (post-copy) migration breakdown",
		Header: []string{"case", "mode", "checkpoint(ms)", "recode(ms)", "scp(ms)", "restore(ms)", "images(KiB)", "post-copy-pages", "post-copy(KiB)"},
	}
	modes := []migMode{modeVanilla, modeLazy}
	addRow := func(label string, mode migMode, bd *cluster.Breakdown) {
		t.Rows = append(t.Rows, []string{
			label, mode.String(), ms(bd.Checkpoint), ms(bd.Recode), ms(bd.Copy), ms(bd.Restore),
			kb(bd.ImageBytes), fmt.Sprintf("%d", bd.LazyFetches), kb(bd.LazyBytes),
		})
	}
	for _, name := range []string{"cg", "mg"} {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		for _, pos := range []struct {
			label string
			frac  float64
		}{{"init", 0.05}, {"mid", 0.5}, {"end", 0.9}} {
			for _, mode := range modes {
				bd, _, err := migrateOnceMode(w, c, pos.frac, mode)
				if err != nil {
					return nil, fmt.Errorf("fig7 %s %s: %w", name, pos.label, err)
				}
				addRow(name+"-"+pos.label, mode, bd)
			}
		}
	}
	// rediska at three database sizes.
	for _, db := range []uint64{100, 2000, 12000} {
		for _, mode := range modes {
			bd, _, err := migrateRediskaMode(c, db, mode)
			if err != nil {
				return nil, fmt.Errorf("fig7 rediska %d: %w", db, err)
			}
			addRow(fmt.Sprintf("rediska-%dkeys", db), mode, bd)
		}
	}
	t.Notes = append(t.Notes,
		"paper: lazy migration slashes checkpoint+scp, restores in ~8 ms, and wins more as heap grows",
		"post-copy pages are served on demand by the source-side page server")
	return t, nil
}

// Fig8 regenerates the heterogeneous-cluster energy/throughput experiment.
func Fig8(c workloads.Class) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "energy efficiency & throughput of evicting jobs to Raspberry Pis",
		Header: []string{"benchmark", "pis", "base(j/kJ)", "dapper(j/kJ)", "eff+%", "base(j/h)", "dapper(j/h)", "tput+%"},
	}
	// Class-B NPB jobs run for minutes on the Xeon. The measured class-S
	// cycle counts are scaled so each job's Xeon duration matches the
	// class-B ballpark below (per-benchmark, as in the paper's mix).
	classBSeconds := map[string]float64{"cg": 62, "mg": 41, "ep": 95, "is": 28}
	evict, err := measureEvictCost(c)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"cg", "mg", "ep", "is"} {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		f, err := newFixture(w, c)
		if err != nil {
			return nil, err
		}
		p, err := f.xeon.Start(name)
		if err != nil {
			return nil, err
		}
		if err := f.xeon.K.Run(p); err != nil {
			return nil, err
		}
		target := classBSeconds[name]
		scale := target * cluster.XeonSpec.ClockHz * cluster.XeonSpec.IPC / float64(p.VCycles)
		if scale < 1 {
			scale = 1
		}
		job := energy.JobClass{Name: name, Cycles: uint64(float64(p.VCycles) * scale)}
		for _, pis := range []int{1, 3} {
			imp, err := energy.Compare(job, pis, evict)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				name + ".B", fmt.Sprintf("%d", pis),
				fmt.Sprintf("%.2f", imp.BaselineEff), fmt.Sprintf("%.2f", imp.DapperEff),
				fmt.Sprintf("%.1f", imp.EfficiencyPct),
				fmt.Sprintf("%.0f", imp.BaselineTput), fmt.Sprintf("%.0f", imp.DapperTput),
				fmt.Sprintf("%.1f", imp.ThroughputPct),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: energy efficiency +15-39%, throughput +37-52% when evicting to 1-3 Pis",
		fmt.Sprintf("eviction cost measured from a real migration: %.0f ms", evict*1000))
	return t, nil
}

// measureEvictCost runs one real migration to price an eviction.
func measureEvictCost(c workloads.Class) (float64, error) {
	w, err := workloads.Get("cg")
	if err != nil {
		return 0, err
	}
	bd, err := MigrateOnce(w, c, 0.3, false)
	if err != nil {
		return 0, err
	}
	return bd.Total().Seconds(), nil
}
