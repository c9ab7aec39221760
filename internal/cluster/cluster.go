// Package cluster models the multi-ISA, multi-node environment of the
// paper's evaluation: an x86-like server and ARM-like boards connected by
// a network, with end-to-end migration (vanilla and post-copy) and the
// virtual-time cost model that reproduces the shape of Figs. 5–7.
//
// Two time scales coexist:
//
//   - guest virtual time: instruction cycles executed by the simulated
//     kernels, converted to seconds through each node's clock model;
//   - transformation time: checkpoint/recode/copy/restore costs modeled
//     from image sizes, node speeds, and link bandwidth, calibrated (see
//     timing.go) to land in the ranges the paper reports.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/obs"
)

// NodeSpec describes one machine.
type NodeSpec struct {
	Name  string
	Arch  isa.Arch
	Cores int
	// ClockHz and IPC convert guest cycles to seconds: t = cycles /
	// (ClockHz * IPC).
	ClockHz float64
	IPC     float64
	// IdleW and PerCoreW form the linear power model used by the energy
	// experiments (Fig. 8).
	IdleW    float64
	PerCoreW float64
}

// Predefined node models, calibrated to the paper's testbed: an Intel Xeon
// E5-2620 v4 (8 cores @ 2.1 GHz, 108 W observed under 7 worker threads)
// and Raspberry Pi 4 boards (4×Cortex-A72 @ 1.5 GHz, 5.1 W under 3
// threads).
var (
	XeonSpec = NodeSpec{
		Name: "xeon", Arch: isa.SX86, Cores: 8,
		ClockHz: 2.1e9, IPC: 1.0,
		IdleW: 43, PerCoreW: 9.3, // 43 + 7*9.3 ≈ 108 W at 7 threads
	}
	PiSpec = NodeSpec{
		Name: "pi", Arch: isa.SARM, Cores: 4,
		ClockHz: 1.5e9, IPC: 0.55,
		IdleW: 2.4, PerCoreW: 0.9, // 2.4 + 3*0.9 = 5.1 W at 3 threads
	}
)

// Node is one machine: a kernel plus its spec and executable store.
type Node struct {
	Spec     NodeSpec
	K        *kernel.Kernel
	Binaries criu.MapProvider
}

// NewNode boots a node.
func NewNode(spec NodeSpec) *Node {
	return &Node{
		Spec:     spec,
		K:        kernel.New(kernel.Config{Cores: spec.Cores}),
		Binaries: criu.MapProvider{},
	}
}

// Install registers a compiled pair's binary for this node's architecture
// (and the other architecture too, so the rewriter can read both sides).
func (n *Node) Install(name string, pair *compiler.Pair) {
	n.Binaries[compiler.ExePath(name, isa.SX86)] = pair.X86
	n.Binaries[compiler.ExePath(name, isa.SARM)] = pair.ARM
}

// Start launches a program (installed under name) on this node.
func (n *Node) Start(name string) (*kernel.Process, error) {
	path := compiler.ExePath(name, n.Spec.Arch)
	bin, err := n.Binaries.Open(path)
	if err != nil {
		return nil, err
	}
	return n.K.StartProcess(bin.LoadSpec(path))
}

// SecondsFor converts guest cycles to wall seconds on this node.
func (n *Node) SecondsFor(cycles uint64) float64 {
	return float64(cycles) / (n.Spec.ClockHz * n.Spec.IPC)
}

// Breakdown is the per-phase cost of one migration (the bars of Figs. 5
// and 7).
type Breakdown struct {
	Checkpoint time.Duration
	Recode     time.Duration
	Copy       time.Duration
	Restore    time.Duration
	// RecodeHost is the real wall time the Go rewriter took (reported by
	// the benchmarks alongside the modeled time).
	RecodeHost time.Duration
	// ImageBytes is the image size before any wire codec (marshaled, if shipped).
	ImageBytes uint64
	// WireBytes is what actually crossed the link: the image after
	// per-segment compression, plus the stream's framing. Copy is modeled
	// from this figure.
	WireBytes uint64
	// LazyBytes counts bytes later served by the page server (post-copy).
	LazyBytes uint64
	// LazyFetches counts page-server round trips after restore.
	LazyFetches uint64
	// Downtime is the service interruption proper, pause to resume: the
	// sum of the four modeled phases in every mode. For pre-copy those
	// phases cover only the final stop-and-copy delta.
	Downtime time.Duration
	// PreCopyTime is time spent on pre-copy rounds while the source keeps
	// running — part of the migration, not of the interruption.
	PreCopyTime time.Duration
	// Rounds counts checkpoints taken: 1 for vanilla/lazy, iterative
	// rounds plus the final delta for pre-copy.
	Rounds int
	// RoundBytes records each pre-copy round's transferred bytes
	// (including the final delta).
	RoundBytes []uint64
	// PreCopyBytes is the total shipped before the final pause.
	PreCopyBytes uint64
}

// Total is the service interruption excluding post-copy paging.
func (b *Breakdown) Total() time.Duration {
	return b.Checkpoint + b.Recode + b.Copy + b.Restore
}

// MigrationTime is the end-to-end migration cost: pre-copy rounds (zero
// for vanilla/lazy) plus the interruption phases.
func (b *Breakdown) MigrationTime() time.Duration {
	return b.PreCopyTime + b.Total()
}

// MigrateOpts controls a migration.
type MigrateOpts struct {
	Lazy bool
	// LazyTCP serves post-copy pages over a real TCP page server (the
	// cross-node deployment path) instead of in-process FetchPage calls.
	// Requires Lazy, as PageClient and Faults do: Migrate refuses each
	// without it. The server and client live inside the MigrationResult;
	// call Close when paging is done.
	LazyTCP bool
	// PageClient tunes the TCP page client (deadline, retries, backoff);
	// nil selects criu's defaults. Its codec and registry are
	// always Codec and Obs below. Requires Lazy.
	PageClient *criu.PageClientOpts
	// Faults, if set, makes the post-copy page transport faulty (see
	// criu.FaultSpec): fetch failures and latency at the page source, on
	// both the in-process and the TCP path, and connection drops at the
	// TCP page server's listener. Requires Lazy.
	Faults *criu.FaultSpec
	// Shuffle additionally re-randomizes the stack layout during the
	// rewrite (policy chaining); ShuffleSeed selects the permutation.
	Shuffle     bool
	ShuffleSeed int64
	// PreCopy selects iterative pre-copy migration (see precopy.go): the
	// process keeps running while dirty pages are shipped in rounds, and
	// pauses only for the final delta. Incompatible with Lazy.
	PreCopy *PreCopyOpts
	// Obs, if set, collects the migration's telemetry into one registry:
	// the monitor's pause protocol, CRIU dump counters, page-transport
	// counters and fault-service latency, and two span trees kept apart:
	// "migration", covering every modeled phase end-to-end, and
	// "migrate.host", one wall-clock span per stage Migrate ran (see
	// migrate.go and docs/observability.md). Nil disables recording at
	// ~1 ns per site, with no clock read and no allocation.
	Obs *obs.Registry
	// Codec selects the wire codec for image transfers (and, for LazyTCP,
	// the page responses): CodecNone (the zero value) frames without
	// compressing; CodecFlate compresses each segment and page response,
	// in the form — plain DEFLATE, DEFLATE over 64-bit word planes, or
	// raw — a sample of that payload favours (docs/transport.md). Those
	// two are all there is to ask for. Restored images are byte-identical
	// across both; only Breakdown.WireBytes changes.
	Codec criu.Codec
	// Delta enables XOR-delta encoding of re-dirtied pages in pre-copy
	// rounds (requires PreCopy): a page the chain already holds ships as
	// the XOR against the chain's content — mostly zeros for small
	// mutations, which CodecFlate then collapses — and soft-dirty false
	// positives are elided entirely. See criu.DumpOpts.DeltaBase.
	Delta bool
}

// MigrationResult couples the restored process with its costs and any
// page-server plumbing the caller must keep alive.
type MigrationResult struct {
	Proc      *kernel.Process
	Breakdown Breakdown
	// Source is the paused source process's page source. It is non-nil
	// only for lazy migrations, where the source process must stay alive
	// to serve post-copy faults: run the restored process to completion
	// (or until its working set is resident), call FinalizeLazyStats if
	// you want the realized paging traffic in the Breakdown, then Close.
	// For non-lazy migrations Migrate reaps the source immediately — its
	// console output stays readable, but it never runs again — and Source
	// is nil.
	Source *criu.ProcessPageSource

	srcKernel  *kernel.Kernel
	srcProc    *kernel.Process
	dstKernel  *kernel.Kernel
	pageServer *criu.PageServer
	pageClient *criu.RemotePageSource
	closeOnce  sync.Once
	closeErr   error
	// Close records restore.cow_breaks: Proc's breaks past restoredBreaks.
	obs            *obs.Registry
	restoredBreaks uint64
}

// Close releases the migration's lazy-paging plumbing: it closes the TCP
// page client and server (if LazyTCP) and reaps the paused source process.
// After Close the restored process must not fault any page that was left
// behind on the source — run it to completion first, or accept that such a
// fault fails with a transport error (see kernel.IsLazyFaultError). Close
// is idempotent; for non-lazy migrations it only records restore.cow_breaks,
// the pages the restored process copied on first write since restore.
func (r *MigrationResult) Close() error {
	return r.finish(true, false)
}

// Rollback abandons a migration whose restored process failed mid-flight
// (typically a post-copy fetch that exhausted its retries, see
// kernel.IsLazyFaultError): it tears down the page-transport plumbing like
// Close and reaps the dead restored process on the destination, but —
// unlike Close — leaves the paused source process alive. The caller can
// then resume the source at its equivalence points (monitor.ResumeLocal)
// and retry the migration later; the fleet control plane's
// retry-with-backoff path is built on exactly this. Rollback and Close
// share one idempotency guard: whichever runs first wins.
func (r *MigrationResult) Rollback() error {
	return r.finish(false, true)
}

func (r *MigrationResult) finish(reapSource, reapRestored bool) error {
	r.closeOnce.Do(func() {
		r.obs.Counter("restore.cow_breaks").Add(r.Proc.AS.CowBreaks() - r.restoredBreaks)
		if r.pageClient != nil {
			if err := r.pageClient.Close(); err != nil {
				r.closeErr = fmt.Errorf("cluster: page client close: %w", err)
			}
		}
		if r.pageServer != nil {
			if err := r.pageServer.Close(); err != nil {
				r.closeErr = errors.Join(r.closeErr, fmt.Errorf("cluster: page server close: %w", err))
			}
		}
		if reapSource && r.srcKernel != nil && r.srcProc != nil {
			r.srcKernel.Reap(r.srcProc)
		}
		if reapRestored && r.dstKernel != nil && r.Proc != nil {
			r.dstKernel.Reap(r.Proc)
		}
	})
	return r.closeErr
}

// FinalizeLazyStats copies the realized post-copy paging traffic into the
// Breakdown: LazyFetches/LazyBytes become the page server's actual request
// and byte counters (including requests that were retried or failed),
// rather than an estimate. Call it after the restored process has run.
func (r *MigrationResult) FinalizeLazyStats() {
	if r.Source != nil {
		st := r.PageStats()
		r.Breakdown.LazyFetches = st.Requests
		r.Breakdown.LazyBytes = st.BytesSent
	}
}

// PageStats returns the page-serving counters for a lazy migration: the
// TCP server's view when LazyTCP, else the in-process source's.
func (r *MigrationResult) PageStats() criu.PageServerStats {
	if r.pageServer != nil {
		return r.pageServer.Stats()
	}
	if r.Source != nil {
		return r.Source.Stats()
	}
	return criu.PageServerStats{}
}

// PageClientStats returns the TCP page client's transport counters
// (retries, reconnects, timeouts, desyncs); zero when the
// migration did not use LazyTCP.
func (r *MigrationResult) PageClientStats() criu.PageClientStats {
	if r.pageClient == nil {
		return criu.PageClientStats{}
	}
	return r.pageClient.Stats()
}
