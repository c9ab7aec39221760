// Command dapperctl is the DAPPER runtime controller: it runs compiled
// DELF binaries on the simulated kernels and drives checkpoint, rewrite,
// restore, and cross-ISA migration — the paper's end-to-end workflow in
// one tool.
//
// Usage:
//
//	dapperctl run prog.sx86.delf
//	    Run to completion on the matching architecture's node.
//
//	dapperctl checkpoint -at 0.5 -out ckpt.imgdir prog.sx86.delf
//	    Run to 50% of the program's cycles, pause at equivalence points,
//	    dump, and write the image directory.
//
//	dapperctl restore ckpt.imgdir prog.sx86.delf [prog.sarm.delf]
//	    Restore an image directory (binaries resolve the files image).
//
//	dapperctl migrate -at 0.5 [-lazy|-precopy] [-shuffle] [-codec none|flate] [-delta] prog.sx86.delf prog.sarm.delf
//	    Full live migration x86 -> arm with the phase breakdown. -codec
//	    selects the wire codec (none frames without compressing, flate
//	    compresses each segment and page response); -delta XOR-delta-encodes
//	    re-dirtied pre-copy pages and requires -precopy.
//
//	dapperctl stats -at 0.5 [-lazy|-precopy] [-codec none|flate] [-delta] [-json] prog.sx86.delf prog.sarm.delf
//	    Run a migration with telemetry attached and print the full obs
//	    report: counters, latency histograms, and the phase span tree
//	    (see docs/observability.md). -json emits machine-readable output.
//	    The -codec/-delta knobs match migrate, so their wire effects
//	    ("proto.bytes_saved", delta counters) land in the report.
//
//	dapperctl clone -n 4 [-at 0.5] [-registry DIR] [-manifest ID] prog.delf
//	    Checkpoint the program mid-run, push the image into a persistent
//	    content-addressed registry (docs/registry.md), and restore it
//	    onto N fresh nodes at once. The clones share resident page
//	    frames copy-on-write until first write; outputs are verified
//	    byte-identical. -manifest skips the checkpoint and clones an
//	    existing manifest out of -registry.
//
// Fleet subcommands (clients of the dapperd control plane; see
// docs/fleet.md — start the daemon first):
//
//	dapperctl submit -socket dapperd.sock -program cg [-lazy|-precopy] [-codec C] [-delta] [-at F] [-target sx86|sarm] [-retries N] [-manifest ID -clone N]
//	    Queue a migration job; prints the job id. With -manifest the job
//	    becomes a clone job: the daemon (started with -registry) restores
//	    the stored checkpoint onto the placed node -clone times instead
//	    of migrating a live process.
//
//	dapperctl jobs -socket dapperd.sock [-json]
//	    List every job the daemon knows with state and attempt counts.
//
//	dapperctl status -socket dapperd.sock [-json] [-full]
//	    Fleet report: job counts, migration latency percentiles and
//	    per-node utilization. -full adds the obs payload to -json.
//
//	dapperctl drain-node -socket dapperd.sock [-undrain] NODE
//	    Stop placing new migrations on NODE (in-flight ones finish);
//	    -undrain reverses it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/fleet"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/registry"
	"github.com/dapper-sim/dapper/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dapperctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: dapperctl run|checkpoint|restore|migrate|stats|clone|submit|jobs|status|drain-node ...")
	}
	switch args[0] {
	case "clone":
		return cmdClone(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "checkpoint":
		return cmdCheckpoint(args[1:])
	case "restore":
		return cmdRestore(args[1:])
	case "migrate":
		return cmdMigrate(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "submit":
		return cmdSubmit(args[1:])
	case "jobs":
		return cmdJobs(args[1:])
	case "status":
		return cmdStatus(args[1:])
	case "drain-node":
		return cmdDrain(args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func loadBinary(path string) (*compiler.Binary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return compiler.UnmarshalBinary(data)
}

func nodeFor(arch isa.Arch) *cluster.Node {
	if arch == isa.SX86 {
		return cluster.NewNode(cluster.XeonSpec)
	}
	return cluster.NewNode(cluster.PiSpec)
}

// exePathOf derives the files-image path from a DELF filename: the stem
// with the architecture suffix (prog.sx86.delf -> /bin/prog.sx86).
func exePathOf(path string, arch isa.Arch) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.TrimSuffix(base, ".delf")
	base = strings.TrimSuffix(base, "."+isa.SX86.String())
	base = strings.TrimSuffix(base, "."+isa.SARM.String())
	return "/bin/" + base + "." + arch.String()
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dapperctl run prog.delf")
	}
	bin, err := loadBinary(fs.Arg(0))
	if err != nil {
		return err
	}
	node := nodeFor(bin.Arch)
	p, err := node.K.StartProcess(bin.LoadSpec(exePathOf(fs.Arg(0), bin.Arch)))
	if err != nil {
		return err
	}
	if err := node.K.Run(p); err != nil {
		return err
	}
	fmt.Print(p.ConsoleString())
	fmt.Printf("[exit %d, %d guest cycles = %.3f ms on %s]\n",
		p.ExitCode, p.VCycles, node.SecondsFor(p.VCycles)*1000, node.Spec.Name)
	return nil
}

// startAndRunTo loads a binary and runs it to a fraction of its total
// cycles, returning the node, the paused-point process and the total.
func startAndRunTo(path string, frac float64) (*cluster.Node, *kernel.Process, *compiler.Binary, uint64, error) {
	bin, err := loadBinary(path)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	node := nodeFor(bin.Arch)
	// Measure the total first.
	ref, err := node.K.StartProcess(bin.LoadSpec(exePathOf(path, bin.Arch)))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if err := node.K.Run(ref); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("reference run: %w", err)
	}
	p, err := node.K.StartProcess(bin.LoadSpec(exePathOf(path, bin.Arch)))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	alive, err := node.K.RunBudget(p, uint64(float64(ref.VCycles)*frac))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if !alive {
		return nil, nil, nil, 0, fmt.Errorf("program finished before the %.0f%% point", frac*100)
	}
	return node, p, bin, ref.VCycles, nil
}

func cmdCheckpoint(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ContinueOnError)
	at := fs.Float64("at", 0.5, "checkpoint position as a fraction of total cycles")
	out := fs.String("out", "ckpt.imgdir", "output image-directory file")
	lazy := fs.Bool("lazy", false, "post-copy dump (stack/TLS only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dapperctl checkpoint [-at F] [-out FILE] prog.delf")
	}
	node, p, bin, _, err := startAndRunTo(fs.Arg(0), *at)
	if err != nil {
		return err
	}
	mon := monitor.New(node.K, p, bin.Meta)
	if err := mon.Pause(1 << 22); err != nil {
		return err
	}
	dir, err := criu.Dump(p, criu.DumpOpts{Lazy: *lazy})
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, dir.Marshal(), 0o644); err != nil {
		return err
	}
	fmt.Printf("checkpointed %d threads at %.0f%% into %s (%d bytes)\n",
		len(p.Threads), *at*100, *out, dir.Size())
	fmt.Printf("console so far: %q\n", p.ConsoleString())
	return nil
}

func cmdRestore(args []string) error {
	fs := flag.NewFlagSet("restore", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("usage: dapperctl restore ckpt.imgdir prog.delf...")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	dir, err := criu.UnmarshalImageDir(data)
	if err != nil {
		return err
	}
	provider := criu.MapProvider{}
	var arch isa.Arch
	for _, path := range fs.Args()[1:] {
		bin, err := loadBinary(path)
		if err != nil {
			return err
		}
		provider[exePathOf(path, bin.Arch)] = bin
		arch = bin.Arch
	}
	node := nodeFor(arch)
	p, err := criu.Restore(node.K, dir, provider)
	if err != nil {
		return err
	}
	if err := node.K.Run(p); err != nil {
		return err
	}
	fmt.Print(p.ConsoleString())
	fmt.Printf("[exit %d]\n", p.ExitCode)
	return nil
}

// migration is what migrate and stats share: a source process paused at
// the migration point, both nodes with both binaries installed, and the
// options the mode flags chose.
type migration struct {
	src, dst *cluster.Node
	p        *kernel.Process
	bin      *compiler.Binary // the source's
	opts     cluster.MigrateOpts
}

// migrationFlags registers the flags migrate and stats share on fs; the
// returned func parses args and sets the migration up.
func migrationFlags(fs *flag.FlagSet, lazyUsage, usage string) func(args []string) (*migration, error) {
	at := fs.Float64("at", 0.5, "migrate at the first equivalence point at or after fraction F")
	lazy := fs.Bool("lazy", false, lazyUsage)
	precopy := fs.Bool("precopy", false, "iterative pre-copy migration")
	codec := fs.String("codec", "none", "wire codec: none (uncompressed) or flate (compressed)")
	delta := fs.Bool("delta", false, "XOR-delta encode re-dirtied pre-copy pages (requires -precopy)")
	return func(args []string) (*migration, error) {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() != 2 {
			return nil, fmt.Errorf("%s", usage)
		}
		if *lazy && *precopy {
			return nil, fmt.Errorf("-lazy and -precopy are mutually exclusive")
		}
		if *delta && !*precopy {
			return nil, fmt.Errorf("-delta requires -precopy (delta encoding applies to pre-copy rounds)")
		}
		wireCodec, err := fleet.ParseCodec(*codec)
		if err != nil {
			return nil, err
		}
		srcNode, p, srcBin, total, err := startAndRunTo(fs.Arg(0), *at)
		if err != nil {
			return nil, err
		}
		dstBin, err := loadBinary(fs.Arg(1))
		if err != nil {
			return nil, err
		}
		dstNode := nodeFor(dstBin.Arch)
		for _, n := range []*cluster.Node{srcNode, dstNode} {
			n.Binaries[exePathOf(fs.Arg(0), srcBin.Arch)] = srcBin
			n.Binaries[exePathOf(fs.Arg(1), dstBin.Arch)] = dstBin
		}
		m := &migration{src: srcNode, dst: dstNode, p: p, bin: srcBin,
			opts: cluster.MigrateOpts{Lazy: *lazy, Codec: wireCodec, Delta: *delta}}
		if *precopy {
			// A round of a twentieth of the run, as the fleet runs them:
			// the default budget outlasts a short program whole.
			m.opts.PreCopy = &cluster.PreCopyOpts{RoundBudget: total/20 + 1}
		}
		return m, nil
	}
}

func cmdMigrate(args []string) error {
	fs := flag.NewFlagSet("migrate", flag.ContinueOnError)
	shuffle := fs.Bool("shuffle", false, "also re-randomize the stack layout during the rewrite")
	parse := migrationFlags(fs, "post-copy migration",
		"usage: dapperctl migrate [-at F] [-lazy|-precopy] [-codec C] [-delta] src.delf dst.delf")
	m, err := parse(args)
	if err != nil {
		return err
	}
	m.opts.Shuffle, m.opts.ShuffleSeed = *shuffle, 1
	res, err := cluster.Migrate(m.src, m.dst, m.p, m.bin.Meta, m.opts)
	if err != nil {
		return err
	}
	out1 := m.p.ConsoleString()
	proc := res.Proc
	if *shuffle {
		fmt.Println("(stack layout re-randomized during the rewrite)")
	}
	if err := m.dst.K.Run(proc); err != nil {
		return err
	}
	bd := res.Breakdown
	fmt.Printf("output: %s", out1+proc.ConsoleString())
	fmt.Printf("breakdown: checkpoint=%v recode=%v copy=%v restore=%v total=%v images=%dB wire=%dB\n",
		bd.Checkpoint, bd.Recode, bd.Copy, bd.Restore, bd.Total(), bd.ImageBytes, bd.WireBytes)
	return nil
}

// cmdStats runs a full migration with a telemetry registry attached and
// prints the obs report.
func cmdStats(args []string) (err error) {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	parse := migrationFlags(fs, "post-copy migration (over a real TCP page server)",
		"usage: dapperctl stats [-at F] [-lazy|-precopy] [-codec C] [-delta] [-json] src.delf dst.delf")
	m, err := parse(args)
	if err != nil {
		return err
	}
	reg := obs.New()
	m.opts.Obs, m.opts.LazyTCP = reg, m.opts.Lazy
	res, err := cluster.Migrate(m.src, m.dst, m.p, m.bin.Meta, m.opts)
	if err != nil {
		return err
	}
	// A close failure (leaked page server, wedged client) should fail the
	// command, but never mask an earlier error.
	defer func() {
		if cerr := res.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// Run to completion so post-copy faults are realized in the report.
	if err := m.dst.K.Run(res.Proc); err != nil {
		return err
	}
	res.FinalizeLazyStats()
	rep := reg.Report()
	if *jsonOut {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	bd := res.Breakdown
	fmt.Printf("migration: downtime=%v total=%v rounds=%d images=%dB wire=%dB\n",
		bd.Downtime, bd.MigrationTime(), bd.Rounds, bd.ImageBytes, bd.WireBytes)
	fmt.Print(rep.Text())
	return nil
}

// cmdClone checkpoints a program mid-run into a content-addressed
// registry store and restores it onto N fresh nodes at once: the
// serverless-style warm-start fan-out. All clones share resident page
// frames copy-on-write until first write, and their outputs are
// verified byte-identical against clone 0.
func cmdClone(args []string) (err error) {
	fs := flag.NewFlagSet("clone", flag.ContinueOnError)
	n := fs.Int("n", 2, "clone fan-out: how many nodes to restore onto")
	at := fs.Float64("at", 0.5, "checkpoint position as a fraction of total cycles")
	regDir := fs.String("registry", "dapper.registry", "persistent chunk store directory")
	manifestID := fs.String("manifest", "", "clone this stored manifest instead of checkpointing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *n < 1 {
		return fmt.Errorf("usage: dapperctl clone -n N [-at F] [-registry DIR] [-manifest ID] prog.delf")
	}
	reg := obs.New()
	store, err := registry.Open(*regDir, registry.Opts{Obs: reg})
	if err != nil {
		return err
	}
	// A close failure means the manifest journal may not be durable.
	defer func() {
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	bin, err := loadBinary(fs.Arg(0))
	if err != nil {
		return err
	}
	exe := exePathOf(fs.Arg(0), bin.Arch)

	id := *manifestID
	if id == "" {
		node, p, srcBin, _, err := startAndRunTo(fs.Arg(0), *at)
		if err != nil {
			return err
		}
		mon := monitor.New(node.K, p, srcBin.Meta)
		if err := mon.Pause(1 << 22); err != nil {
			return err
		}
		dir, err := criu.Dump(p, criu.DumpOpts{})
		if err != nil {
			return err
		}
		m, pst, err := store.Push(dir)
		if err != nil {
			return err
		}
		id = m.ID
		fmt.Printf("pushed manifest %s: %d new chunks (%dB stored), %d hit (%dB elided)\n",
			id, pst.ChunksNew, pst.BytesStored, pst.ChunksHit, pst.BytesElided)
	} else if id, err = resolveManifest(store, id); err != nil {
		return fmt.Errorf("%w (store %s)", err, *regDir)
	}

	targets := make([]*cluster.Node, *n)
	for i := range targets {
		targets[i] = nodeFor(bin.Arch)
		targets[i].Binaries[exe] = bin
	}
	res, err := cluster.CloneFromRegistry(store, id, targets, cluster.CloneOpts{Obs: reg})
	if err != nil {
		return err
	}
	fmt.Printf("cloned %.12s onto %d nodes: %d shared frames, %d resident pages/clone shared, pull=%v restore=%v\n",
		id, *n, res.SharedPages, res.Procs[0].AS.SharedResidentPages(), res.PullHost, res.RestoreHost)
	var out string
	var breaks uint64
	for i, p := range res.Procs {
		if err := targets[i].K.Run(p); err != nil {
			return fmt.Errorf("run clone %d: %w", i, err)
		}
		breaks += p.AS.CowBreaks()
		if i == 0 {
			out = p.ConsoleString()
			continue
		}
		if got := p.ConsoleString(); got != out {
			return fmt.Errorf("clone %d output diverged from clone 0", i)
		}
	}
	fmt.Printf("all %d clones byte-identical; %d COW page breaks total\n", *n, breaks)
	fmt.Print(out)
	return nil
}

// resolveManifest expands a possibly-truncated manifest ID (like the
// %.12s forms the CLI prints) to the unique stored manifest it
// prefixes.
func resolveManifest(store *registry.Store, id string) (string, error) {
	if store.Manifest(id) != nil {
		return id, nil
	}
	var matches []string
	for _, m := range store.Manifests() {
		if strings.HasPrefix(m, id) {
			matches = append(matches, m)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return "", fmt.Errorf("manifest %q not in the store", id)
	default:
		return "", fmt.Errorf("manifest prefix %q is ambiguous (%d matches)", id, len(matches))
	}
}

// ---- fleet subcommands: thin clients of the dapperd control socket ----

// fleetSocket adds the shared -socket flag.
func fleetSocket(fs *flag.FlagSet) *string {
	return fs.String("socket", "dapperd.sock", "dapperd control socket")
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	socket := fleetSocket(fs)
	program := fs.String("program", "", "registered program to migrate (required)")
	class := fs.String("class", "", "problem class override for registry workloads")
	at := fs.Float64("at", 0.5, "migrate at the first equivalence point at or after fraction F")
	lazy := fs.Bool("lazy", false, "post-copy migration")
	precopy := fs.Bool("precopy", false, "iterative pre-copy migration")
	codec := fs.String("codec", "none", "wire codec: none or flate")
	delta := fs.Bool("delta", false, "XOR-delta pre-copy rounds (requires -precopy)")
	src := fs.String("src", "", "pin the source node by name")
	dst := fs.String("dst", "", "pin the destination node by name")
	target := fs.String("target", "", "constrain destination ISA: sx86 or sarm")
	retries := fs.Int("retries", 0, "retry budget (0 = default, negative = none)")
	manifest := fs.String("manifest", "", "submit a clone job for this registry manifest (daemon needs -registry)")
	clones := fs.Int("clone", 0, "clone fan-out on the placed node (requires -manifest; default 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 || *program == "" {
		return fmt.Errorf("usage: dapperctl submit -program NAME [flags] (see dapperctl help)")
	}
	spec := fleet.JobSpec{
		Program:    *program,
		RunFrac:    *at,
		SrcNode:    *src,
		DstNode:    *dst,
		TargetArch: *target,
		MaxRetries: *retries,
		Manifest:   *manifest,
		Clone:      *clones,
		Class:      workloads.Class(strings.ToUpper(*class)),
		Opts: fleet.JobOpts{
			Codec:   *codec,
			Delta:   *delta,
			Lazy:    *lazy,
			PreCopy: *precopy,
		},
	}
	resp, err := fleet.Call(*socket, fleet.Request{Op: fleet.OpSubmit, Spec: &spec})
	if err != nil {
		return err
	}
	fmt.Printf("job %d submitted\n", resp.JobID)
	return nil
}

func cmdJobs(args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
	socket := fleetSocket(fs)
	jsonOut := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: dapperctl jobs [-socket S] [-json]")
	}
	resp, err := fleet.Call(*socket, fleet.Request{Op: fleet.OpJobs})
	if err != nil {
		return err
	}
	if *jsonOut {
		data, err := json.MarshalIndent(resp.Jobs, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if len(resp.Jobs) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	for _, j := range resp.Jobs {
		line := fmt.Sprintf("job %-4d %-10s %-8s mode=%-7s attempts=%d retries=%d",
			j.ID, j.Program, j.State, j.Mode, j.Attempts, j.Retries)
		if j.Src != "" {
			line += fmt.Sprintf(" %s->%s", j.Src, j.Dst)
		} else if j.Manifest != "" && j.Dst != "" {
			line += fmt.Sprintf(" %.12s->%s x%d", j.Manifest, j.Dst, j.Clones)
		}
		if j.State == "done" {
			line += fmt.Sprintf(" migration=%v downtime=%v", j.Migration, j.Downtime)
		}
		if j.Err != "" {
			line += " err=" + j.Err
		}
		fmt.Println(line)
	}
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	socket := fleetSocket(fs)
	jsonOut := fs.Bool("json", false, "emit JSON")
	full := fs.Bool("full", false, "include the obs telemetry payload (with -json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: dapperctl status [-socket S] [-json] [-full]")
	}
	req := fleet.Request{Op: fleet.OpStatus}
	if *full {
		req.Op = fleet.OpReport
	}
	resp, err := fleet.Call(*socket, req)
	if err != nil {
		return err
	}
	rep := resp.Status
	if *full {
		rep = resp.Report
	}
	if *jsonOut {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Print(rep.Text())
	return nil
}

func cmdDrain(args []string) error {
	fs := flag.NewFlagSet("drain-node", flag.ContinueOnError)
	socket := fleetSocket(fs)
	undrain := fs.Bool("undrain", false, "re-enable placement on the node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dapperctl drain-node [-socket S] [-undrain] NODE")
	}
	if _, err := fleet.Call(*socket, fleet.Request{
		Op: fleet.OpDrain, Node: fs.Arg(0), Undrain: *undrain,
	}); err != nil {
		return err
	}
	if *undrain {
		fmt.Printf("node %s undrained\n", fs.Arg(0))
	} else {
		fmt.Printf("node %s drained (in-flight migrations finish; no new placements)\n", fs.Arg(0))
	}
	return nil
}
