package cluster

import (
	"errors"
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// Pre-copy migration: the third restoration mode next to vanilla and
// post-copy. The process keeps running while its memory is shipped in
// iterative rounds — a full incremental-capable dump first, then only the
// pages dirtied since the previous round (soft-dirty tracking + in_parent
// images) — and pauses only for the final small delta. The destination
// flattens the received chain, recodes it, and restores; downtime shrinks
// from "copy everything" to "copy the last round's working set".

// Pre-copy convergence rules: at most maxPreCopyRounds checkpoints
// including the final stop-and-copy delta; stop once a round's delta is
// down to stopPages data pages, or once the link could ship it within
// downtimeTarget — pre-copying further rounds cannot improve downtime.
const (
	maxPreCopyRounds   = 4
	stopPages          = 16
	downtimeTarget     = 5 * time.Millisecond
	defaultRoundBudget = 1 << 20
	// quiesceSlices bounds RunUntilIdle: the source must block within this
	// many budget slices per round.
	quiesceSlices = 64
)

// PreCopyOpts tunes iterative pre-copy migration (MigrateOpts.PreCopy).
type PreCopyOpts struct {
	// RoundBudget is the guest-cycle budget the source runs for between
	// rounds (default 1Mi cycles).
	RoundBudget uint64
	// RunUntilIdle keeps running budget slices between rounds until the
	// source blocks with its input drained — required for servers, whose
	// input queue is not part of the checkpoint: a pause with requests
	// still queued would lose them.
	RunUntilIdle bool
	// BetweenRounds, if set, is called after each resume (before the
	// between-round run) — the hook experiments use to keep traffic
	// arriving at the source while rounds are in flight.
	BetweenRounds func(p *kernel.Process, round int)
	// TCP ships each round's images over the real ImageReceiver transport
	// instead of the in-process hand-off.
	TCP bool
}

// migratePreCopy is the iterative path behind MigrateOpts.PreCopy.
func migratePreCopy(src, dst *Node, p *kernel.Process, meta *stackmap.Metadata, opts MigrateOpts, recodeNode *Node) (*MigrationResult, error) {
	pc := *opts.PreCopy
	if pc.RoundBudget == 0 {
		pc.RoundBudget = defaultRoundBudget
	}
	reg := opts.Obs
	var bd Breakdown
	mon := monitor.New(src.K, p, meta).WithObs(reg)

	var recv *ImageReceiver
	if pc.TCP {
		r, err := ListenImages("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: pre-copy: %w", err)
		}
		recv = r
		// Teardown after the chain is flattened and restored: at that
		// point a receiver close failure cannot lose migration data.
		defer func() { _ = recv.Close() }()
	}
	// ship moves one round's images to the destination and returns the
	// directory as the destination sees it plus the marshaled (raw) and
	// on-wire payload sizes. Both arms carry the same segments, so they
	// report the same wire figure for the same images.
	ship := func(dir *criu.ImageDir) (*criu.ImageDir, uint64, uint64, error) {
		if !pc.TCP {
			blob := dir.Marshal()
			sink := image.NewDirSinkFor(len(blob))
			wire, _, err := transfer(blob, opts.Codec, sink, reg)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("cluster: pre-copy transfer: %w", err)
			}
			return sink.Dir(), uint64(len(blob)), wire, nil
		}
		raw, wire, err := SendImagesOpts(recv.Addr(), dir, SendOpts{Codec: opts.Codec, Obs: reg})
		if err != nil {
			return nil, 0, 0, fmt.Errorf("cluster: pre-copy send: %w", err)
		}
		d, err := recv.TakeWait(shipTimeout(wire))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("cluster: pre-copy: %w", err)
		}
		return d, raw, wire, nil
	}

	var chain []*criu.ImageDir // destination-side copies, oldest first
	var parent *criu.ImageDir  // source-side previous dump
	// base is the chain's resolved page content (Delta mode): what each
	// round's re-dirtied pages are XOR-encoded against, advanced with
	// every dump.
	var base *criu.PageSet
	var finalBytes uint64
	var rawBytes uint64
	// Per-round modeled costs for non-final rounds, so the span tree can
	// show each overlapped round as its own phase.
	type roundCost struct{ ck, xfer, recode time.Duration }
	var roundCosts []roundCost
	prevPages := -1
	idle := false
	for round := 0; ; round++ {
		if err := mon.Pause(opts.MaxPauses); err != nil {
			return nil, fmt.Errorf("cluster: pre-copy pause (round %d): %w", round, err)
		}
		dopts := criu.DumpOpts{Parent: parent, TrackMem: true, Obs: reg}
		if opts.Delta && parent != nil {
			dopts.DeltaBase = base
		}
		dir, err := criu.Dump(p, dopts)
		if err != nil {
			return nil, fmt.Errorf("cluster: pre-copy dump (round %d): %w", round, err)
		}
		if opts.Delta {
			// Fold this round into the resolved chain content so the next
			// round's deltas encode against it.
			if base, err = criu.AdvanceBase(base, dir); err != nil {
				return nil, fmt.Errorf("cluster: pre-copy delta base (round %d): %w", round, err)
			}
		}
		dataPages := criu.DumpedPages(dir)
		got, rawN, n, err := ship(dir)
		if err != nil {
			return nil, err
		}
		rawBytes += rawN
		// Each received link is verified on arrival, so a checkpoint
		// corrupted in transit fails this round — with the invariant named
		// — instead of poisoning the flatten after the final pause.
		if err := imgcheck.VerifyLink(got); err != nil {
			return nil, fmt.Errorf("cluster: pre-copy round %d received a broken image set: %w", round, err)
		}
		chain = append(chain, got)
		parent = dir
		bd.RoundBytes = append(bd.RoundBytes, n)
		ck := CheckpointTime(dir.Size())
		xfer := InfiniBand.TransferTime(n)

		// Convergence: the first round always pre-copies; afterwards stop
		// when the delta is small enough, cheap enough to ship within the
		// downtime target, no longer shrinking, or the source has quiesced.
		final := round+1 >= maxPreCopyRounds || idle
		if round >= 1 && !final {
			final = dataPages <= stopPages ||
				InfiniBand.TransferTime(uint64(dataPages)*mem.PageSize) <= downtimeTarget ||
				(prevPages >= 0 && dataPages >= prevPages)
		}
		prevPages = dataPages
		if final {
			bd.Checkpoint = ck
			bd.Copy = xfer
			bd.Rounds = round + 1
			finalBytes = n
			break
		}
		// Not converged: this round's cost overlaps with execution.
		rc := roundCost{ck: ck, xfer: xfer, recode: RecodePagesTime(recodeNode, n)}
		roundCosts = append(roundCosts, rc)
		bd.PreCopyTime += rc.ck + rc.xfer + rc.recode
		bd.PreCopyBytes += n
		if err := mon.ResumeLocal(); err != nil {
			return nil, fmt.Errorf("cluster: pre-copy resume (round %d): %w", round, err)
		}
		if pc.BetweenRounds != nil {
			pc.BetweenRounds(p, round)
		}
		slices := 1
		if pc.RunUntilIdle {
			slices = quiesceSlices
		}
		for i := 0; i < slices; i++ {
			alive, err := src.K.RunBudget(p, pc.RoundBudget)
			if err != nil {
				if errors.Is(err, kernel.ErrDeadlock) {
					// Blocked with input drained: nothing left to dirty.
					if pc.BetweenRounds == nil {
						idle = true
					}
					break
				}
				return nil, fmt.Errorf("cluster: pre-copy run (round %d): %w", round, err)
			}
			if !alive {
				return nil, fmt.Errorf("cluster: pre-copy: process exited during round %d", round)
			}
			if !pc.RunUntilIdle {
				break
			}
			if i == slices-1 {
				return nil, fmt.Errorf("cluster: pre-copy: source did not quiesce in round %d", round)
			}
		}
	}

	// Final delta in hand and the source still paused: verify the chain
	// end to end (in_parent resolvability, acyclicity), then flatten it
	// on the destination, recode, restore.
	if err := imgcheck.VerifyChain(chain); err != nil {
		return nil, fmt.Errorf("cluster: pre-copy chain: %w", err)
	}
	flat, err := criu.FlattenChain(chain)
	if err != nil {
		return nil, fmt.Errorf("cluster: pre-copy flatten: %w", err)
	}
	//lint:ignore wallclock RecodeHost is real host time by definition, reported separately and never part of modeled downtime
	hostStart := time.Now()
	if err := rewriteForDest(flat, src, dst, opts); err != nil {
		return nil, err
	}
	//lint:ignore wallclock RecodeHost is real host time by definition, reported separately and never part of modeled downtime
	bd.RecodeHost = time.Since(hostStart)
	// Earlier rounds were recoded as they streamed in (PreCopyTime); the
	// pause pays the per-image stack rewrite plus the final delta's pages.
	bd.Recode = RecodeTime(recodeNode, finalBytes)
	p2, err := criu.RestoreWith(dst.K, flat, dst.Binaries, criu.RestoreOpts{Obs: opts.Obs})
	if err != nil {
		return nil, fmt.Errorf("cluster: pre-copy restore: %w", err)
	}
	bd.Restore = RestoreTime(flat.Size(), false)
	// Downtime is the final stop-and-copy interruption, composed of the
	// MODELED phases only (checkpoint + recode + copy + restore). Host
	// wall-clock costs — the Go rewriter (RecodeHost), TCP shipping, test
	// scheduling — must never leak in here: the same migration replayed
	// twice reports the identical downtime (the determinism regression
	// test pins this).
	bd.Downtime = bd.Checkpoint + bd.Recode + bd.Copy + bd.Restore
	// ImageBytes is the marshaled total; WireBytes is what the codec
	// actually put on the link (RoundBytes holds the per-round figures).
	bd.ImageBytes = rawBytes
	bd.WireBytes = bd.PreCopyBytes + finalBytes

	// Span tree: precopy rounds overlap execution; downtime is the final
	// interruption. Parents finish with the exact sum of their children,
	// so MigrationTime is covered completely.
	root := reg.NewSpan("migration")
	pcSpan := root.Child("precopy")
	for i, rc := range roundCosts {
		rs := pcSpan.Child(fmt.Sprintf("round%d", i))
		rs.Child("checkpoint").Finish(rc.ck)
		rs.Child("copy").Finish(rc.xfer)
		rs.Child("recode").Finish(rc.recode)
		rs.Finish(rc.ck + rc.xfer + rc.recode)
	}
	pcSpan.Finish(bd.PreCopyTime)
	dt := root.Child("downtime")
	dt.Child("checkpoint").Finish(bd.Checkpoint)
	dt.Child("recode").Finish(bd.Recode)
	dt.Child("copy").Finish(bd.Copy)
	dt.Child("restore").Finish(bd.Restore)
	dt.Finish(bd.Downtime)
	root.Finish(bd.MigrationTime())
	reg.Counter("migrate.count").Inc()
	reg.Counter("migrate.image_bytes").Add(bd.ImageBytes)
	reg.Counter("precopy.rounds").Add(uint64(bd.Rounds))
	reg.Counter("precopy.bytes").Add(bd.PreCopyBytes)
	reg.Counter("precopy.chain_depth").Add(uint64(len(chain)))
	reg.Histogram("recode.host_ns").Observe(bd.RecodeHost)

	res := &MigrationResult{Proc: p2, Breakdown: bd, srcKernel: src.K, srcProc: p, dstKernel: dst.K}
	// Everything lives on the destination now; nothing faults back.
	src.K.Reap(p)
	return res, nil
}
