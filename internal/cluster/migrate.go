package cluster

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// A migration is the paper's strictly sequential pipeline — checkpoint,
// rewrite, copy, restore — and the three modes are three orders of the
// same stages:
//
//	vanilla   checkpoint → recode → ship → restore → finish
//	lazy      the same on a lazy dump, then servePostCopy
//	pre-copy  {checkpoint → ship → verify and fold link}* → verify newest
//	          → flatten → recode → restore → finish  (precopy.go)
//
// The source checks the image it dumped (imgcheck.verify); the
// image-vs-binary check runs once, inside restore, on the bytes that
// shipped and the binary the destination has installed.
//
// The stages are methods on one per-call struct, composed by plain calls:
// the modes differ in order and one of them loops, which a call sequence
// states directly. Every stage runs under stage(), which times it on the
// host clock as one child of the "migrate.host" span tree; the modeled
// costs of Figs. 5–7 go to the separate "migration" tree in finish. The
// two trees share a registry and nothing else.
type migration struct {
	src, dst *Node
	p        *kernel.Process
	opts     MigrateOpts
	mon      *monitor.Monitor
	// recodeNode is the faster of the two nodes: the paper notes the
	// transformation can always run on the most powerful machine.
	recodeNode *Node
	// recv is the destination's image receiver when images travel over
	// TCP (PreCopyOpts.TCP); nil selects the in-process hand-off.
	recv *ImageReceiver

	// host is the wall-clock root; at is the span stages currently open
	// their children under — host itself, or a pre-copy round's window.
	host, at *obs.Span

	bd Breakdown
	// rounds holds the modeled cost of each overlapped pre-copy round, so
	// the modeled tree can show every round as its own phase.
	rounds []roundCost
	// base is the pre-copy chain's resolved page content (Delta mode):
	// what each round's re-dirtied pages are XOR-encoded against,
	// advanced with every dump.
	base *criu.PageSet
	// chain is the pre-copy destination's: every link received, folded.
	chain imgcheck.Chain
}

type roundCost struct{ ck, xfer, recode time.Duration }

// maxPauses bounds the monitor's wait for equivalence points.
const maxPauses = 1 << 20

// Migrate checkpoints p on src, rewrites it for dst's architecture, copies
// the images, and restores it on dst. The returned process is ready to
// run. meta must be the program's stack-map metadata.
func Migrate(src, dst *Node, p *kernel.Process, meta *stackmap.Metadata, opts MigrateOpts) (*MigrationResult, error) {
	if opts.Delta && opts.PreCopy == nil {
		return nil, fmt.Errorf("cluster: delta encoding requires pre-copy migration")
	}
	if opts.PreCopy != nil && opts.Lazy {
		return nil, fmt.Errorf("cluster: pre-copy is incompatible with lazy migration")
	}
	// The page transport's options act only on a lazy migration's page
	// faults; anywhere else they would be dropped without a word.
	switch {
	case opts.Lazy:
	case opts.LazyTCP:
		return nil, fmt.Errorf("cluster: LazyTCP requires lazy migration")
	case opts.Faults != nil:
		return nil, fmt.Errorf("cluster: fault injection (Faults) requires lazy migration: faults act on the page transport")
	case opts.PageClient != nil:
		return nil, fmt.Errorf("cluster: PageClient options require lazy migration")
	}
	m := &migration{
		src: src, dst: dst, p: p, opts: opts,
		mon:        monitor.New(src.K, p, meta).WithObs(opts.Obs),
		recodeNode: fasterNode(src, dst),
		host:       opts.Obs.NewSpan("migrate.host"),
	}
	m.at = m.host
	// A failed migration still closes its window and its root, so the
	// report shows how far it got.
	defer func() { m.at.End(); m.host.End() }()

	run := m.stopAndCopy
	if opts.PreCopy != nil {
		run = m.preCopy
	}
	res, err := run()
	if err != nil {
		if opts.PreCopy != nil {
			// Every pre-copy dump arms soft-dirty tracking for the next
			// one. Success reaps the source; a failure hands it back to
			// the caller, who may resume it, and it must not keep paying
			// for a dirty set nobody will collect.
			p.AS.StopDirtyTracking()
		}
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if !opts.Lazy {
		// Nothing will ever fault back to the source: reap it now instead
		// of leaking it SIGSTOPed forever. Its console stays readable.
		_ = m.stage("kernel.reap", func() error { src.K.Reap(p); return nil }) // Reap cannot fail
	}
	return res, nil
}

// stage runs fn as one named wall-clock child of the span stages currently
// hang under, and names the stage in fn's error: a refusal reads the way
// the host tree does. On a disabled registry the span is nil: no clock is
// read and nothing is allocated.
func (m *migration) stage(name string, fn func() error) error {
	sp := m.at.Child(name)
	err := fn()
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// stopAndCopy is the vanilla composition, and with a lazy dump and the
// post-copy tail the lazy one: the source stays paused for the whole
// pipeline.
func (m *migration) stopAndCopy() (*MigrationResult, error) {
	dir, err := m.checkpoint(criu.DumpOpts{Lazy: m.opts.Lazy})
	if err != nil {
		return nil, err
	}
	// Pre-flight on the source side: a dump that violates an image
	// invariant must not be rewritten or shipped. The view the check reads
	// is the one the rewrite goes on to edit.
	var v *image.View
	if err := m.stage("imgcheck.verify", func() error {
		v = image.Open(dir)
		return imgcheck.Check(v).Err()
	}); err != nil {
		return nil, err
	}
	m.bd.Checkpoint = CheckpointTime(dir.Size())
	// Recode for the destination architecture, optionally chaining a stack
	// shuffle (the destination starts with a fresh layout).
	if err := m.recode(v); err != nil {
		return nil, err
	}
	m.bd.Recode = RecodeTime(m.recodeNode, dir.Size())
	got, wire, err := m.ship(dir)
	if err != nil {
		return nil, err
	}
	m.bd.Copy = InfiniBand.TransferTime(wire)
	m.bd.Rounds = 1
	p2, err := m.restore(got)
	if err != nil {
		return nil, err
	}
	res := m.finish(p2)
	if m.opts.Lazy {
		return m.servePostCopy(res)
	}
	return res, nil
}

// checkpoint pauses the process at equivalence points and dumps it.
func (m *migration) checkpoint(dopts criu.DumpOpts) (dir *criu.ImageDir, err error) {
	if err := m.stage("monitor.pause", func() error { return m.mon.Pause(maxPauses) }); err != nil {
		return nil, err
	}
	name := "criu.dump"
	if dopts.Parent != nil {
		name = "criu.dump_incr"
	}
	dopts.Obs = m.opts.Obs
	err = m.stage(name, func() (err error) {
		dir, err = criu.Dump(m.p, dopts)
		return err
	})
	return dir, err
}

// recode rewrites the image for the destination and takes the one host
// reading a Breakdown carries.
func (m *migration) recode(v *image.View) error {
	//lint:ignore wallclock RecodeHost is real host time by definition, reported separately and never part of modeled downtime
	hostStart := time.Now()
	err := m.rewriteForDest(v)
	//lint:ignore wallclock RecodeHost is real host time by definition, reported separately and never part of modeled downtime
	m.bd.RecodeHost = time.Since(hostStart)
	return err
}

// rewriteForDest runs the recode pipeline on an open view: the cross-ISA
// rewrite when the architectures differ, then the optional stack shuffle —
// each its own stage on the host clock, both over the one view, which
// whichever runs last commits.
func (m *migration) rewriteForDest(v *image.View) error {
	ctx := &core.Context{Binaries: m.src.Binaries, Obs: m.opts.Obs}
	if m.src.Spec.Arch != m.dst.Spec.Arch {
		if err := m.stage("core.rewrite", func() error {
			err := core.Apply(v, ctx, core.CrossISAPolicy{Target: m.dst.Spec.Arch})
			if err == nil && !m.opts.Shuffle {
				v.Commit()
			}
			return err
		}); err != nil {
			return err
		}
	}
	if !m.opts.Shuffle {
		return nil
	}
	return m.stage("core.shuffle", func() error {
		if err := core.Apply(v, ctx, core.StackShufflePolicy{Seed: m.opts.ShuffleSeed}); err != nil {
			return err
		}
		v.Commit()
		// The shuffled binary must be visible on BOTH nodes: register it
		// into the destination's provider too.
		path := v.Files.ExePath
		bin, err := m.src.Binaries.Open(path)
		if err != nil {
			return err
		}
		m.dst.Binaries.Register(path, bin)
		return nil
	})
}

// ship copies one image directory over the link (scp) and returns it as
// the destination sees it, with the bytes the link carried. In process,
// transfer cuts the directory's parts into the segments a TCP transfer
// would carry, so the wire figure is measured, not estimated, and hands
// the directory over by reference; over TCP it goes through the real
// ImageReceiver. Both carry the same segments and report the same figure
// for the same images.
func (m *migration) ship(dir *criu.ImageDir) (got *criu.ImageDir, wire uint64, err error) {
	var raw uint64
	if m.recv == nil {
		err = m.stage("cluster.transfer", func() (err error) {
			got, raw, wire, err = transfer(dir, m.opts.Codec, m.opts.Obs)
			return err
		})
	} else {
		err = m.stage("cluster.send_recv", func() (err error) {
			if raw, wire, err = SendImagesOpts(m.recv.Addr(), dir, SendOpts{Codec: m.opts.Codec, Obs: m.opts.Obs}); err == nil {
				got, err = m.recv.TakeWait(shipTimeout(wire))
			}
			return err
		})
	}
	if err != nil {
		return nil, 0, err
	}
	// ImageBytes is the marshaled total; WireBytes is what the codec
	// actually put on the link, summed over every round shipped.
	m.bd.ImageBytes += raw
	m.bd.WireBytes += wire
	return got, wire, nil
}

// restore rebuilds the process on the destination. RestoreWith runs its
// own pre-flights (the link check, the image-vs-binary check) first: it is
// the one place version skew is refused, against the binary the process
// lands in.
func (m *migration) restore(dir *criu.ImageDir) (p2 *kernel.Process, err error) {
	err = m.stage("criu.restore", func() (err error) {
		p2, err = criu.RestoreWith(m.dst.K, dir, m.dst.Binaries, criu.RestoreOpts{Obs: m.opts.Obs})
		return err
	})
	m.bd.Restore = RestoreTime(dir.Size(), m.opts.Lazy)
	return p2, err
}

// finish turns the stages' modeled costs into the Breakdown's totals, the
// one modeled span tree and the counters.
func (m *migration) finish(p2 *kernel.Process) *MigrationResult {
	bd := &m.bd
	// Downtime is the stop-and-copy interruption, composed of the MODELED
	// phases only. Host wall-clock costs — the Go rewriter (RecodeHost),
	// TCP shipping, test scheduling — never leak in: the same migration
	// replayed twice reports the identical downtime (the determinism
	// regression test pins this).
	bd.Downtime = bd.Total()

	// Parents finish with the exact sum of their children, so the root
	// covers MigrationTime completely: pre-copy rounds overlap execution,
	// downtime is the interruption (all of it, for vanilla and lazy).
	reg := m.opts.Obs
	root := reg.NewSpan("migration")
	if m.opts.PreCopy != nil {
		pc := root.Child("precopy")
		for i, rc := range m.rounds {
			rs := pc.Child(fmt.Sprintf("round%d", i))
			rs.Child("checkpoint").Finish(rc.ck)
			rs.Child("copy").Finish(rc.xfer)
			rs.Child("recode").Finish(rc.recode)
			rs.Finish(rc.ck + rc.xfer + rc.recode)
		}
		pc.Finish(bd.PreCopyTime)
		reg.Counter("precopy.rounds").Add(uint64(bd.Rounds))
		reg.Counter("precopy.bytes").Add(bd.PreCopyBytes)
	}
	dt := root.Child("downtime")
	dt.Child("checkpoint").Finish(bd.Checkpoint)
	dt.Child("recode").Finish(bd.Recode)
	dt.Child("copy").Finish(bd.Copy)
	dt.Child("restore").Finish(bd.Restore)
	dt.Finish(bd.Downtime)
	root.Finish(bd.MigrationTime())
	reg.Counter("migrate.count").Inc()
	reg.Counter("migrate.image_bytes").Add(bd.ImageBytes)
	reg.Histogram("recode.host_ns").Observe(bd.RecodeHost)

	return &MigrationResult{Proc: p2, Breakdown: *bd, srcKernel: m.src.K, srcProc: m.p, dstKernel: m.dst.K, obs: reg, restoredBreaks: p2.AS.CowBreaks()}
}

// servePostCopy is the lazy tail: the paused source process becomes the
// page server. The registry observes the fault path at the destination
// side (ObsSource) and the transport counters on both ends.
func (m *migration) servePostCopy(res *MigrationResult) (*MigrationResult, error) {
	opts, p2 := &m.opts, res.Proc
	err := m.stage("criu.lazy_setup", func() error {
		res.Source = criu.NewProcessPageSourceObs(m.p, opts.Obs)
		var pageSrc criu.PageSource = res.Source
		if opts.Faults != nil {
			pageSrc = criu.NewFlakySource(pageSrc, *opts.Faults, opts.Obs)
		}
		if !opts.LazyTCP {
			criu.InstallLazyHandler(p2, criu.ObsSource(pageSrc, opts.Obs))
			return nil
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("page server: %w", err)
		}
		if opts.Faults != nil {
			ln = criu.NewFlakyListener(ln, *opts.Faults, opts.Obs)
		}
		srv := criu.ServePagesObs(ln, pageSrc, opts.Obs)
		var copts criu.PageClientOpts
		if opts.PageClient != nil {
			copts = *opts.PageClient
		}
		copts.Codec, copts.Obs = opts.Codec, opts.Obs
		client, err := criu.DialPageServerOpts(srv.Addr(), copts)
		if err != nil {
			err = fmt.Errorf("page client: %w", err)
			if cerr := srv.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("page server close: %w", cerr))
			}
			return err
		}
		criu.InstallLazyHandler(p2, criu.ObsSource(client, opts.Obs))
		res.pageServer, res.pageClient = srv, client
		return nil
	})
	if err != nil {
		// A failed set-up must reap p2: it is already adopted by dst.K, and
		// a caller handed (nil, err) has no way to reach it. The source
		// stays paused and untouched, so the caller can ResumeLocal and
		// retry.
		m.dst.K.Reap(p2)
		return nil, err
	}
	return res, nil
}

func fasterNode(a, b *Node) *Node {
	if a.Spec.ClockHz*a.Spec.IPC >= b.Spec.ClockHz*b.Spec.IPC {
		return a
	}
	return b
}
