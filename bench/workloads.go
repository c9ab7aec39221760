package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/workloads"
)

type mode int

const (
	modeVanilla mode = iota
	modePreCopy
	modeLazy
	modeShuffle
)

// spec is one named workload: which guest runs, how it migrates, and how
// much work the post-migration script carries.
type spec struct {
	name string
	// why records the reason the workload exists: the layers it loads and
	// the ones it bypasses.
	why   string
	mode  mode
	prog  string
	class workloads.Class
	src   cluster.NodeSpec
	dst   cluster.NodeSpec
	// keys is the rediska preload size; pairs the SET+GET pairs of the
	// post-migration script. Zero for batch guests.
	keys  int
	pairs int
	// budget is the guest-cycle budget of a batch guest's serve phase.
	budget uint64
}

// betweenWrites is the number of overwrites pushed at the source after
// each pre-copy round resumes, so later rounds have a real delta.
const betweenWrites = 32

// verifyEvery: a batch guest is run to completion and its console
// compared with the native run on every verifyEvery-th op (op 0 first).
const verifyEvery = 20

var specs = []spec{
	{
		name: "kv_vanilla",
		why:  "bulk state, stop-and-copy: dump, rewrite page-set load/store, marshal/unmarshal and restore scale with the 3.5 MB image; codec, TCP and page transport idle",
		mode: modeVanilla, prog: "rediska", class: workloads.ClassA,
		src: cluster.XeonSpec, dst: cluster.PiSpec, keys: 12000, pairs: 256,
	},
	{
		name: "kv_precopy",
		why:  "the wire stack: flate, loopback SendImages/ImageReceiver, soft-dirty incremental and XOR-delta dumps, FlattenChain; uses dump and restore differently from kv_vanilla",
		mode: modePreCopy, prog: "rediska", class: workloads.ClassA,
		src: cluster.XeonSpec, dst: cluster.PiSpec, keys: 12000, pairs: 256,
	},
	{
		name: "kv_lazy",
		why:  "post-copy: migrate is a minimal restore and the cost moves into serve, where page client/server framing and the kernel fault path dominate; bulk page layers idle",
		mode: modeLazy, prog: "rediska", class: workloads.ClassB,
		src: cluster.XeonSpec, dst: cluster.PiSpec, keys: 24000, pairs: 640,
	},
	{
		name: "mt_shuffle",
		why:  "small state, 4 threads, opposite direction plus stack shuffle: fixed costs (pause passes, per-thread unwinding, relayout, updatecheck) dominate migrate; serve is pure vm/kernel stepping",
		mode: modeShuffle, prog: "streamcluster", class: workloads.ClassA,
		src: cluster.PiSpec, dst: cluster.XeonSpec, budget: 400_000,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// fixture is a workload made ready by set-up: the compiled guest, the
// golden checkpoint every op clones its source process from, the request
// script, and the never-migrated oracle's answer to it.
type fixture struct {
	spec
	seed   int64
	pair   *compiler.Pair
	golden *criu.ImageDir
	script [][]byte
	// between[r] is pushed at the source after pre-copy round r resumes;
	// rounds is the checkpoint count of one migration, learnt from the
	// set-up rehearsal (it is a function of the inputs only).
	between [][][]byte
	rounds  int
	// oracle is the reply bytes of a never-migrated clone fed the same
	// requests (servers), or the native run's console (batch guests).
	oracle []byte
}

// setup compiles the guest, runs it to the checkpoint state, saves the
// golden image, and produces the oracle. Everything here is outside the
// timed region of an op; its own wall time is reported as setup_s.
func setup(sp spec, seed int64) (*fixture, error) {
	w, err := workloads.Get(sp.prog)
	if err != nil {
		return nil, err
	}
	// Compile directly: workloads.CompilePair caches per process, which
	// would hide the compiler from every set-up after the first.
	pair, err := compiler.Compile(w.Source(sp.class))
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", sp.prog, err)
	}
	f := &fixture{spec: sp, seed: seed, pair: pair}
	rng := rand.New(rand.NewSource(seed))
	node, _ := f.nodes()
	p, err := node.Start(sp.prog)
	if err != nil {
		return nil, err
	}
	if w.Kind == workloads.Server {
		p.PushInput(workloads.RediskaLoad(uint64(sp.keys)))
		if err := runUntilIdle(node.K, p); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		p.TakeOutput()
		f.script = kvScript(rng, sp.keys, sp.pairs)
		for r := 0; r < 4; r++ { // pre-copy's default MaxRounds
			var ws [][]byte
			for i := 0; i < betweenWrites; i++ {
				ws = append(ws, workloads.RediskaSet(preloadKey(rng.Intn(sp.keys)), uint64(rng.Int63())))
			}
			f.between = append(f.between, ws)
		}
	} else {
		ref, err := node.Start(sp.prog)
		if err != nil {
			return nil, err
		}
		if err := node.K.Run(ref); err != nil {
			return nil, fmt.Errorf("native run: %w", err)
		}
		f.oracle = []byte(ref.ConsoleString())
		half := ref.VCycles / 2
		if ref.VCycles-half <= sp.budget {
			return nil, fmt.Errorf("serve budget %d does not fit in the %d cycles left after the checkpoint", sp.budget, ref.VCycles-half)
		}
		if alive, err := node.K.RunBudget(p, half); err != nil || !alive {
			return nil, fmt.Errorf("run to checkpoint: alive=%v err=%v", alive, err)
		}
	}
	if err := monitor.New(node.K, p, pair.Meta).Pause(1 << 20); err != nil {
		return nil, fmt.Errorf("golden pause: %w", err)
	}
	if f.golden, err = criu.Dump(p, criu.DumpOpts{}); err != nil {
		return nil, fmt.Errorf("golden dump: %w", err)
	}
	node.K.Reap(p)

	if w.Kind != workloads.Server {
		return f, nil
	}
	var prefix [][]byte
	if sp.mode == modePreCopy {
		// Rehearse one migration to learn how many rounds these inputs
		// take; the oracle then replays the same between-round writes.
		r, err := f.runOp(0, nil, false)
		if err != nil {
			return nil, fmt.Errorf("pre-copy rehearsal: %w", err)
		}
		f.rounds = r.rounds
		for _, ws := range f.between[:f.rounds-1] {
			prefix = append(prefix, ws...)
		}
	}
	clone, err := criu.Restore(node.K, f.golden, node.Binaries)
	if err != nil {
		return nil, fmt.Errorf("oracle clone: %w", err)
	}
	defer node.K.Reap(clone)
	for _, req := range prefix {
		clone.PushInput(req)
	}
	if err := runUntilIdle(node.K, clone); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	clone.TakeOutput()
	if f.oracle, _, err = f.serve(node.K, clone); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return f, nil
}

func preloadKey(i int) uint64 { return 1000000 + 7*uint64(i) }

// kvScript draws the post-migration requests: each pair SETs a fresh key
// and GETs a preloaded one, so the replies depend on migrated memory.
func kvScript(rng *rand.Rand, keys, pairs int) [][]byte {
	out := make([][]byte, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		fresh := 1<<33 + uint64(rng.Int63n(1<<33))
		out = append(out,
			workloads.RediskaSet(fresh, uint64(rng.Int63())),
			workloads.RediskaGet(preloadKey(rng.Intn(keys))))
	}
	return out
}

// nodes boots a fresh source/destination pair with the guest installed.
// Fresh per op because a shuffle re-registers the binary on both nodes.
func (f *fixture) nodes() (src, dst *cluster.Node) {
	src, dst = cluster.NewNode(f.src), cluster.NewNode(f.dst)
	src.Install(f.prog, f.pair)
	dst.Install(f.prog, f.pair)
	return src, dst
}

func (f *fixture) shuffleSeed(op int) int64 { return f.seed*1_000_003 + int64(op) }

func (f *fixture) pushBetween(p *kernel.Process, round int) {
	for _, req := range f.between[round] {
		p.PushInput(req)
	}
}

// opts are the options a user of each mode passes; Workers stays 0.
func (f *fixture) opts(op int) cluster.MigrateOpts {
	switch f.mode {
	case modePreCopy:
		return cluster.MigrateOpts{
			Codec: criu.CodecFlate, Delta: true,
			PreCopy: &cluster.PreCopyOpts{TCP: true, RunUntilIdle: true, BetweenRounds: f.pushBetween},
		}
	case modeLazy:
		return cluster.MigrateOpts{Lazy: true, LazyTCP: true, Codec: criu.CodecNone}
	case modeShuffle:
		return cluster.MigrateOpts{Shuffle: true, ShuffleSeed: f.shuffleSeed(op)}
	}
	return cluster.MigrateOpts{}
}

// runUntilIdle steps p until every thread blocks with the input drained:
// a server that has answered everything it was sent.
func runUntilIdle(k *kernel.Kernel, p *kernel.Process) error {
	for {
		st, err := k.Step(p)
		if err != nil {
			return err
		}
		if st.Exited {
			return errors.New("guest exited while serving")
		}
		if st.Runnable == 0 && p.PendingInput() == 0 {
			return nil
		}
	}
}

func threadCycles(p *kernel.Process) uint64 {
	var n uint64
	for _, t := range p.Threads {
		n += t.Cycles
	}
	return n
}

// serve drives a process through the fixed post-migration work and
// returns what it replied and the guest cycles it executed.
func (f *fixture) serve(k *kernel.Kernel, p *kernel.Process) ([]byte, uint64, error) {
	before := threadCycles(p)
	if f.mode == modeShuffle {
		alive, err := k.RunBudget(p, f.budget)
		if err != nil {
			return nil, 0, err
		}
		if !alive {
			return nil, 0, errors.New("guest exited inside the serve budget")
		}
		return nil, threadCycles(p) - before, nil
	}
	for _, req := range f.script {
		p.PushInput(req)
	}
	if err := runUntilIdle(k, p); err != nil {
		return nil, 0, err
	}
	return p.TakeOutput(), threadCycles(p) - before, nil
}

// migrated is a finished migration as the serve and clean-up phases see
// it, whether cluster.Migrate or the staged re-enactment produced it.
type migrated struct {
	proc   *kernel.Process
	wire   uint64 // image bytes put on the link, all rounds
	rounds int
	// pages reports the post-copy page traffic; nil outside lazy mode.
	pages func() (criu.PageServerStats, criu.PageClientStats)
	// probes, if set, times off-path calls on this op's own bytes after
	// the serve phase (staged ops only).
	probes func() error
	close  func() error
	stagedCounts
}

// opResult is what one op contributes to the metrics.
type opResult struct {
	op int
	// refMs is the reference kernel's time around this op (mean of a
	// reading before the migration and one after the serve phase);
	// migrateMs and serveMs are in reference milliseconds.
	refMs       float64
	migrateMs   float64
	serveMs     float64
	wireBytes   uint64
	allocBytes  uint64
	guestCycles uint64
	pageFetches uint64
	pageBytes   uint64
	pageRetries uint64
	rounds      int
	stagedCounts
}

// runOp is one closed-loop op. Untimed: clone the source from the golden
// image, collect the previous op's garbage, read the reference kernel.
// Timed: the migration, then the serve phase.
// Untimed again: oracle comparison and clean-up. With a tracer the
// migration is re-enacted stage by stage instead of calling Migrate.
func (f *fixture) runOp(op int, tr *tracer, check bool) (r opResult, err error) {
	src, dst := f.nodes()
	var p *kernel.Process
	if err := tr.do("criu.clone", func() (err error) {
		p, err = criu.Restore(src.K, f.golden, src.Binaries)
		return err
	}); err != nil {
		return r, fmt.Errorf("clone: %w", err)
	}
	tr.run("runtime.gc", runtime.GC)

	ref0 := refKernelMs()
	alloc0 := totalAlloc()
	t0 := time.Now()
	var m *migrated
	if tr == nil {
		var res *cluster.MigrationResult
		res, err = cluster.Migrate(src, dst, p, f.pair.Meta, f.opts(op))
		if err == nil {
			m = &migrated{proc: res.Proc, wire: res.Breakdown.WireBytes, rounds: res.Breakdown.Rounds, close: res.Close}
			if f.mode == modeLazy {
				m.pages = func() (criu.PageServerStats, criu.PageClientStats) { return res.PageStats(), res.PageClientStats() }
			}
		}
	} else {
		err = tr.do("migrate", func() (err error) {
			m, err = f.staged(op, tr, src, dst, p)
			return err
		})
	}
	t1 := time.Now()
	if err != nil {
		src.K.Reap(p)
		return r, fmt.Errorf("migrate: %w", err)
	}
	defer func() {
		if cerr := tr.do("cluster.close", m.close); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
		tr.run("kernel.reap", func() { dst.K.Reap(m.proc) })
	}()
	var reply []byte
	if err := tr.do("vm.serve", func() (err error) {
		reply, r.guestCycles, err = f.serve(dst.K, m.proc)
		return err
	}); err != nil {
		return r, fmt.Errorf("serve: %w", err)
	}
	t2 := time.Now()
	r.allocBytes = totalAlloc() - alloc0
	r.refMs = (ref0 + refKernelMs()) / 2

	r.migrateMs = refMillis(t1.Sub(t0), r.refMs)
	r.serveMs = refMillis(t2.Sub(t1), r.refMs)
	r.wireBytes, r.rounds = m.wire, m.rounds
	if m.pages != nil {
		srv, cl := m.pages()
		r.pageFetches, r.pageBytes, r.pageRetries = srv.Requests, srv.BytesSent, cl.Retries
		r.wireBytes += srv.BytesSent
	}
	if m.probes != nil {
		if err := tr.do("probes", m.probes); err != nil {
			return r, fmt.Errorf("probe: %w", err)
		}
	}
	r.stagedCounts = m.stagedCounts
	if !check {
		return r, nil
	}
	switch {
	case f.mode != modeShuffle:
		if !bytes.Equal(reply, f.oracle) {
			return r, fmt.Errorf("reply differs from the never-migrated oracle (%d vs %d bytes)", len(reply), len(f.oracle))
		}
	case op%verifyEvery == 0:
		if err := dst.K.Run(m.proc); err != nil {
			return r, fmt.Errorf("run to completion: %w", err)
		}
		if got := m.proc.ConsoleString(); got != string(f.oracle) {
			return r, fmt.Errorf("console %q differs from the native run's %q", got, f.oracle)
		}
	}
	if f.rounds != 0 && r.rounds != f.rounds {
		return r, fmt.Errorf("migration took %d rounds, the rehearsal (and the oracle) %d", r.rounds, f.rounds)
	}
	return r, nil
}
