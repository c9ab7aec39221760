package cluster

import (
	"errors"
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
)

// Pre-copy migration: the third restoration mode next to vanilla and
// post-copy. The process keeps running while its memory is shipped in
// iterative rounds — a full incremental-capable dump first, then only the
// pages dirtied since the previous round (soft-dirty tracking + in_parent
// images) — and pauses only for the final small delta. The destination
// folds each link into one chain as it arrives, then recodes and restores;
// downtime shrinks from "copy everything" to "copy the last round's set".

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

// preCopy is the iterative composition of the stages in migrate.go. Every
// round stops the source for a window — pause, dump, ship, verify — and
// all but the last resume it; the last window stays open through flatten,
// recode and restore and is the downtime. On the host clock the tree is
// therefore round, vm.between_rounds, round, ..., downtime.
func (m *migration) preCopy() (*MigrationResult, error) {
	pc := *m.opts.PreCopy
	if pc.RoundBudget == 0 {
		pc.RoundBudget = defaultRoundBudget
	}
	if pc.TCP {
		if err := m.stage("cluster.listen", func() (err error) {
			m.recv, err = ListenImages("127.0.0.1:0")
			return err
		}); err != nil {
			return nil, err
		}
		// Teardown on every way out, and on success after the chain is
		// restored: a receiver close failure can then lose no data.
		defer func() { _ = m.recv.Close() }()
	}
	bd := &m.bd

	var parent *criu.ImageDir // source-side previous dump
	prevPages := -1
	idle := false
	for round := 0; ; round++ {
		window := m.host.Child("round")
		m.at = window
		dopts := criu.DumpOpts{Parent: parent, TrackMem: true}
		if m.opts.Delta && parent != nil {
			dopts.DeltaBase = m.base
		}
		dir, err := m.checkpoint(dopts)
		if err != nil {
			return nil, fmt.Errorf("pre-copy round %d: %w", round, err)
		}
		dataPages := criu.DumpedPages(dir)

		// Convergence: the first round always pre-copies; afterwards stop
		// when the delta is small enough, cheap enough to ship within the
		// downtime target, no longer shrinking, or the source has quiesced.
		// All of it is known once the dump returns, so the last round does
		// not fold its link into a delta base nothing will read.
		final := round+1 >= maxPreCopyRounds || idle
		if round >= 1 && !final {
			final = dataPages <= stopPages ||
				InfiniBand.TransferTime(uint64(dataPages)*mem.PageSize) <= downtimeTarget ||
				(prevPages >= 0 && dataPages >= prevPages)
		}
		prevPages = dataPages
		n, err := m.shipRound(dir, !final)
		if err != nil {
			return nil, fmt.Errorf("pre-copy round %d: %w", round, err)
		}
		parent = dir
		bd.RoundBytes = append(bd.RoundBytes, n)
		ck := CheckpointTime(dir.Size())
		xfer := InfiniBand.TransferTime(n)
		if final {
			window.Rename("downtime")
			bd.Checkpoint = ck
			bd.Copy = xfer
			bd.Rounds = round + 1
			break
		}
		// Not converged: this round's cost overlaps with execution.
		rc := roundCost{ck: ck, xfer: xfer, recode: RecodePagesTime(m.recodeNode, n)}
		m.rounds = append(m.rounds, rc)
		bd.PreCopyTime += rc.ck + rc.xfer + rc.recode
		bd.PreCopyBytes += n
		if err := m.stage("monitor.resume", m.mon.ResumeLocal); err != nil {
			return nil, fmt.Errorf("pre-copy round %d: %w", round, err)
		}
		window.End()
		m.at = m.host
		if err := m.stage("vm.between_rounds", func() (err error) {
			breaks := m.p.AS.CowBreaks() // the dumps' snapshots, paid for here
			idle, err = m.runBetweenRounds(&pc, round)
			m.opts.Obs.Counter("precopy.cow_breaks").Add(m.p.AS.CowBreaks() - breaks)
			return err
		}); err != nil {
			return nil, err
		}
	}

	// Final delta in hand, folded like every link before it, the source
	// still paused: what is left of verifying the chain is the newest link's
	// address space, and of flattening it a store. Then recode, restore.
	if err := m.stage("imgcheck.verify", m.chain.Verify); err != nil {
		return nil, err
	}
	rewrite := m.src.Spec.Arch != m.dst.Spec.Arch || m.opts.Shuffle
	var flat *criu.ImageDir
	var v *image.View // opened in the flatten's stage: the window's time stays in stages
	if err := m.stage("criu.flatten", func() (err error) {
		if flat, err = m.chain.Flatten(); err == nil && rewrite {
			v = image.Open(flat)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if rewrite {
		if err := m.recode(v); err != nil {
			return nil, err
		}
	}
	// Earlier rounds were recoded as they streamed in (PreCopyTime); the
	// pause pays the per-image stack rewrite plus the final delta's pages.
	bd.Recode = RecodeTime(m.recodeNode, bd.RoundBytes[bd.Rounds-1])
	p2, err := m.restore(flat)
	if err != nil {
		return nil, err
	}
	m.at.End()
	m.at = m.host
	// Everything lives on the destination now; nothing faults back.
	return m.finish(p2), nil
}

// shipRound is what every pre-copy window does after its dump: fold the
// dump into the delta base if another round reads it, ship the images, and
// push the link the destination received into its chain.
func (m *migration) shipRound(dir *criu.ImageDir, another bool) (wire uint64, err error) {
	if m.opts.Delta && another {
		if err := m.stage("criu.advance_base", func() (err error) {
			m.base, err = criu.AdvanceBase(m.base, dir)
			return err
		}); err != nil {
			return 0, err
		}
	}
	got, wire, err := m.ship(dir)
	if err != nil {
		return 0, err
	}
	// Each received link is verified — structure, then every page against
	// the chain so far — and folded on arrival, over one view: a checkpoint
	// corrupted in transit fails this round, with the invariant named.
	return wire, m.stage("imgcheck.verify", func() error { return m.chain.Push(image.Open(got)) })
}

// runBetweenRounds lets the resumed source run its between-round budget
// and reports whether it blocked with its input drained and nobody
// feeding it — nothing left to dirty, so the next round is the last.
func (m *migration) runBetweenRounds(pc *PreCopyOpts, round int) (idle bool, err error) {
	parked := m.p.VCycles // where this round's pause left the source
	if pc.BetweenRounds != nil {
		pc.BetweenRounds(m.p, round)
	}
	slices := 1
	if pc.RunUntilIdle {
		slices = quiesceSlices
	}
	for i := 0; i < slices; i++ {
		alive, err := m.src.K.RunBudget(m.p, pc.RoundBudget)
		if errors.Is(err, kernel.ErrDeadlock) {
			return pc.BetweenRounds == nil, nil
		}
		if err != nil {
			return false, fmt.Errorf("pre-copy run (round %d): %w", round, err)
		}
		if !alive {
			// A pause runs on to the next equivalence point, a call: in a
			// program whose loops make none, that can be the end of the run.
			return false, fmt.Errorf("pre-copy: round %d paused the source at guest cycle %d, and the program reached exit before round %d "+
				"(a pause waits for the next equivalence point, a call; a program whose loops make none has its next one near its end)",
				round, parked, round+1)
		}
		if !pc.RunUntilIdle {
			break
		}
	}
	if pc.RunUntilIdle {
		return false, fmt.Errorf("pre-copy: source did not quiesce in round %d", round)
	}
	return false, nil
}
