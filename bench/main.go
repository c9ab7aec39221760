// Command bench is the repository's host-time migration benchmark: four
// workloads built on golden checkpoints, each a single-goroutine closed
// loop (one client; the next migration starts only after the previous
// one's replies were checked), five end-to-end metrics taken on the host
// wall clock around public calls, and a separate traced pass that
// re-enacts the migration stage by stage for the per-layer ledger. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type config struct {
	seed     int64
	seconds  float64
	ops      int // 0: until seconds are up
	trace    bool
	traceOut string
	setups   int
	// Input-size overrides for the sensitivity table; 0 keeps the
	// workload's own value.
	keys   int
	pairs  int
	budget uint64
}

func (c config) apply(sp spec) spec {
	if sp.keys != 0 {
		if c.keys != 0 {
			sp.keys = c.keys
		}
		if c.pairs != 0 {
			sp.pairs = c.pairs
		}
	} else if c.budget != 0 {
		sp.budget = c.budget
	}
	return sp
}

// result is one run of one workload.
type result struct {
	workload  string
	attempted int
	failed    int
	firstErr  error
	defs      []metricDef
	values    map[string]float64
	samples   map[string]int
}

// runWorkload sets the workload up (several times for an untraced run,
// so setup_s is a median) and measures it.
func runWorkload(sp spec, cfg config) (*result, error) {
	sp = cfg.apply(sp)
	nSetups := 1
	if !cfg.trace {
		nSetups = cfg.setups
	}
	var f *fixture
	var setupS []float64
	for i := 0; i < nSetups; i++ {
		ref0 := refKernelMs()
		start := time.Now()
		var err error
		if f, err = setup(sp, cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		wall := time.Since(start)
		setupS = append(setupS, refMillis(wall, (ref0+refKernelMs())/2)/1e3)
	}
	res, err := f.measure(cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.put("setup_s", median(setupS), len(setupS))
	}
	return res, nil
}

// measure drives the closed loop for the configured time and reduces the
// samples to the metric set the trace mode selects: end-to-end metrics
// from an untraced loop, or per-layer metrics from a loop that alternates
// untraced and staged ops so both see the same machine conditions.
func (f *fixture) measure(cfg config) (*result, error) {
	res := &result{workload: f.name, values: map[string]float64{}, samples: map[string]int{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// The collector is parked for the whole loop and run by hand between
	// ops (runOp), so no cycle starts inside a timed region. With it on, a
	// tiny post-collection heap keeps it marking through every migration:
	// the medians double and triple, and their run-to-run spread with them.
	// What an op allocates is gated as alloc_mb_per_op instead.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var plain, staged []opResult
	record := func(dst *[]opResult, op int, t *tracer) {
		res.attempted++
		var r opResult
		err := t.do("op", func() (err error) {
			r, err = f.runOp(op, t, true)
			return err
		})
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s op %d: %w", f.name, op, err)
			}
			return
		}
		r.op = op
		*dst = append(*dst, r)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for op := 0; (cfg.ops == 0 || op < cfg.ops) && time.Now().Before(deadline); op++ {
		record(&plain, op, nil)
		if tr != nil {
			tr.op = op
			record(&staged, op, tr)
		}
	}

	if !cfg.trace {
		res.defs = endToEnd
		n := len(plain)
		res.put("migrate_ms_p50", medianOf(plain, func(r opResult) float64 { return r.migrateMs }), n)
		res.put("serve_ms_p50", medianOf(plain, func(r opResult) float64 { return r.serveMs }), n)
		res.put("wire_bytes_per_op", medianOf(plain, func(r opResult) float64 { return float64(r.wireBytes) }), n)
		res.put("alloc_mb_per_op", medianOf(plain, func(r opResult) float64 { return float64(r.allocBytes) / 1e6 }), n)
		return res, nil
	}
	res.defs = perLayer
	res.ledger(plain, staged, tr)
	path := cfg.traceOut
	if path == "" {
		path = filepath.Join(".bench_out", "spans-"+f.name+".json")
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	return res, nil
}

func (res *result) put(name string, v float64, n int) {
	res.values[name] = v
	res.samples[name] = n
}

func column(rs []opResult, get func(opResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = get(r)
	}
	return out
}

func medianOf(rs []opResult, get func(opResult) float64) float64 { return median(column(rs, get)) }

// ledger reduces a traced run to the per-layer metrics: medians over the
// staged ops of each layer's span time, heap delta and work count, plus
// the figures that tie the staged pipeline back to the untraced Migrate.
func (res *result) ledger(plain, staged []opResult, tr *tracer) {
	ops := tr.byOp()
	n := len(staged)
	count := func(get func(opResult) float64) float64 { return medianOf(staged, get) }
	// Span times are wall times; like the end-to-end figures they are
	// reported in reference milliseconds, scaled by their own op's factor.
	scale := map[int]float64{}
	for _, r := range staged {
		scale[r.op] = refScale(r.refMs)
	}
	spanMs := func(name string) float64 {
		return count(func(r opResult) float64 { return ops[r.op].ms[name] * scale[r.op] })
	}
	spanAllocMB := func(name string) float64 {
		return count(func(r opResult) float64 { return float64(ops[r.op].alloc[name]) / 1e6 })
	}
	// Throughput per op, then the median: bytes and time of the same op.
	mbPerS := func(name string, bytes func(opResult) uint64) float64 {
		var xs []float64
		for _, r := range staged {
			if ms := ops[r.op].ms[name] * scale[r.op]; ms > 0 {
				xs = append(xs, float64(bytes(r))/1e6/(ms/1e3))
			}
		}
		return median(xs)
	}
	for _, name := range []string{
		"monitor.pause", "monitor.resume", "criu.clone", "criu.dump", "criu.dump_incr",
		"criu.advance_base", "criu.flatten", "criu.restore", "criu.lazy_setup",
		"imgcheck.verify", "imgcheck.target_binary", "core.rewrite", "core.shuffle",
		"image.marshal", "image.unmarshal", "imgproto.compress", "imgproto.decompress",
		"cluster.listen", "cluster.send_recv", "vm.between_rounds", "kernel.reap", "runtime.gc",
	} {
		res.put(name+"_ms", spanMs(name), n)
	}
	res.put("criu.dump_mb_per_s", mbPerS("criu.dump", func(r opResult) uint64 { return r.dumpBytes }), n)
	res.put("criu.restore_mb_per_s", mbPerS("criu.restore", func(r opResult) uint64 { return r.restoreBytes }), n)
	res.put("criu.dump_alloc_mb", spanAllocMB("criu.dump"), n)
	res.put("criu.restore_alloc_mb", spanAllocMB("criu.restore"), n)
	res.put("core.rewrite_alloc_mb", spanAllocMB("core.rewrite"), n)
	res.put("image.marshal_alloc_mb", spanAllocMB("image.marshal"), n)
	res.put("criu.delta_pages_per_op", count(func(r opResult) float64 { return float64(r.deltaPages) }), n)
	res.put("image.bytes_per_op", count(func(r opResult) float64 { return float64(r.imageBytes) }), n)
	res.put("cluster.rounds_per_op", count(func(r opResult) float64 { return float64(r.rounds) }), n)
	res.put("criu.page_fetches_per_op", count(func(r opResult) float64 { return float64(r.pageFetches) }), n)
	res.put("criu.page_bytes_per_op", count(func(r opResult) float64 { return float64(r.pageBytes) }), n)
	res.put("criu.page_retries_per_op", count(func(r opResult) float64 { return float64(r.pageRetries) }), n)
	res.put("imgproto.ratio", count(func(r opResult) float64 {
		if r.codecWire == 0 {
			return 0
		}
		return float64(r.codecRaw) / float64(r.codecWire)
	}), n)
	var fetchUs []float64
	for _, s := range tr.spans {
		if k, ok := scale[s.Op]; ok && s.Name == "criu.page_fetch" {
			fetchUs = append(fetchUs, s.ms()*k*1e3)
		}
	}
	res.put("criu.page_fetch_us", median(fetchUs), len(fetchUs))

	migrate := column(plain, func(r opResult) float64 { return r.migrateMs })
	serve := column(plain, func(r opResult) float64 { return r.serveMs })
	p50 := median(migrate)
	stageSum, migrateWall := tr.stageSums()
	stagedMs := count(func(r opResult) float64 { return stageSum[r.op] * scale[r.op] })
	tracedWall := count(func(r opResult) float64 { return migrateWall[r.op] * scale[r.op] })
	res.put("cluster.migrate_ms_p90", percentile(migrate, 0.9), len(plain))
	res.put("cluster.staged_ms", stagedMs, n)
	res.put("cluster.orchestration_ms", p50-stagedMs, n)
	res.put("vm.serve_ms_p90", percentile(serve, 0.9), len(plain))
	res.put("vm.guest_mcycles_per_s", medianOf(plain, func(r opResult) float64 {
		return float64(r.guestCycles) / 1e6 / (r.serveMs / 1e3)
	}), len(plain))
	if p50 > 0 {
		res.put("trace.coverage", stagedMs/p50, n)
		res.put("trace.overhead_pct", 100*(tracedWall-p50)/p50, n)
	}
	res.put("trace.ref_kernel_ms", medianOf(plain, func(r opResult) float64 { return r.refMs }), len(plain))
}

// stageSums returns, per staged op, the summed duration of the stage
// spans directly under its "migrate" span, and that span's own wall time
// (stages plus the heap-counter reads between them).
func (t *tracer) stageSums() (stages, wall map[int]float64) {
	stages, wall = map[int]float64{}, map[int]float64{}
	migrate := map[int]bool{} // span IDs
	for _, s := range t.spans {
		if s.Name == "migrate" {
			migrate[s.ID] = true
			wall[s.Op] = s.ms()
		}
	}
	for _, s := range t.spans {
		if migrate[s.Parent] {
			stages[s.Op] += s.ms()
		}
	}
	return stages, wall
}

// print writes every metric by name and unit, then the machine-readable
// line: one JSON object, last on standard output.
func (res *result) print(w io.Writer, cfg config) error {
	fmt.Fprintf(w, "# %s seed=%d attempted=%d failed=%d GOMAXPROCS=%d NumCPU=%d\n",
		res.workload, cfg.seed, res.attempted, res.failed, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if res.firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", res.firstErr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range res.defs {
		fmt.Fprintf(w, "%-28s %16.4f %-10s n=%d\n", d.name, res.values[d.name], d.unit, res.samples[d.name])
		metrics[d.name] = value{res.values[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var workload string
	var trace, repeat int
	fs.StringVar(&workload, "workload", "all", "workload to run: "+strings.Join(specNames(), ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the request script, the between-round writes and the shuffle seeds")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "how long each workload's loop measures")
	fs.IntVar(&trace, "trace", 0, "0: untraced loop, end-to-end metrics; 1: alternate untraced and staged ops, per-layer metrics")
	fs.IntVar(&cfg.ops, "ops", 0, "stop after this many ops even if -seconds are not up (0: no cap)")
	fs.IntVar(&cfg.setups, "setups", 3, "how many times an untraced run sets up; setup_s is their median")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_out/spans-<workload>.json)")
	fs.IntVar(&repeat, "repeat", 1, "run the selection this many times (seed, seed+1, ...) and report each end-to-end metric's spread against its bound")
	fs.IntVar(&cfg.keys, "keys", 0, "override the preload size of the kv workloads")
	fs.IntVar(&cfg.pairs, "script", 0, "override the SET+GET pairs of the kv post-migration script")
	fs.Uint64Var(&cfg.budget, "budget", 0, "override the guest-cycle budget of mt_shuffle's serve phase")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = trace != 0
	selected := specs
	if workload != "all" {
		sp, ok := findSpec(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(specNames(), ", "))
		}
		selected = []spec{sp}
	}
	if cfg.setups < 1 || repeat < 1 || cfg.seconds <= 0 {
		return fmt.Errorf("-setups, -repeat and -seconds must be positive")
	}

	failed := 0
	across := map[string]map[string][]float64{} // workload -> metric -> value per repeat
	for r := 0; r < repeat; r++ {
		for _, sp := range selected {
			c := cfg
			c.seed += int64(r)
			res, err := runWorkload(sp, c)
			if err != nil {
				return err
			}
			if err := res.print(stdout, c); err != nil {
				return err
			}
			failed += res.failed
			if across[sp.name] == nil {
				across[sp.name] = map[string][]float64{}
			}
			for name, v := range res.values {
				across[sp.name][name] = append(across[sp.name][name], v)
			}
		}
	}
	if repeat > 1 && !cfg.trace {
		for _, sp := range selected {
			fmt.Fprintf(stdout, "# %s across %d repeats\n", sp.name, repeat)
			for _, d := range endToEnd {
				fmt.Fprintln(stdout, repeatSummary(d, across[sp.name][d.name]))
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

func specNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

func main() {
	// One P: with the collector parked the measured paths need a second
	// one only to overlap the two ends of a loopback connection, and what
	// that overlap costs on shared virtual CPUs is the host's wake-up
	// latency, not this program (kv_lazy's serve phase read 71 ms with a
	// 19 % spread on two Ps, 44 ms and 5 % on one).
	runtime.GOMAXPROCS(1)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
