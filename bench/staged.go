package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/updatecheck"
)

// stagedCounts are the work counts a staged op records next to its spans,
// so throughputs and ratios are measured where the work happens.
type stagedCounts struct {
	dumpBytes    uint64 // size of the full (round 0) dump
	restoreBytes uint64 // size of the directory handed to restore
	imageBytes   uint64 // marshaled bytes, all rounds
	deltaPages   int    // data pages carried by rounds after the first
	codecRaw     uint64 // bytes fed to the flate probe ...
	codecWire    uint64 // ... and what came out
}

// pageProbes is how many untouched pages the lazy probe fetches per op.
const pageProbes = 32

// staged re-enacts one migration as the sequence of public calls
// cluster.Migrate makes for this mode, one span per call. The restored
// process must answer the script exactly as Migrate's does; runOp checks
// that against the same oracle.
func (f *fixture) staged(op int, tr *tracer, src, dst *cluster.Node, p *kernel.Process) (*migrated, error) {
	if f.mode == modePreCopy {
		return f.stagedPreCopy(tr, src, dst, p)
	}
	lazy := f.mode == modeLazy
	m := &migrated{rounds: 1, close: func() error { return nil }}
	if err := tr.do("monitor.pause", func() error {
		return monitor.New(src.K, p, f.pair.Meta).Pause(1 << 20)
	}); err != nil {
		return nil, err
	}
	var dir *criu.ImageDir
	if err := tr.do("criu.dump", func() (err error) {
		dir, err = criu.Dump(p, criu.DumpOpts{Lazy: lazy})
		return err
	}); err != nil {
		return nil, err
	}
	m.dumpBytes = dir.Size()
	if err := tr.do("imgcheck.verify", func() error {
		return imgcheck.VerifyWith(dir, imgcheck.Opts{})
	}); err != nil {
		return nil, err
	}
	if err := f.rewrite(op, tr, dir, src, dst); err != nil {
		return nil, err
	}
	if err := tr.do("imgcheck.target_binary", func() error {
		return verifyTarget(dir, src.Binaries)
	}); err != nil {
		return nil, err
	}
	var blob []byte
	tr.run("image.marshal", func() { blob = dir.Marshal() })
	m.imageBytes, m.wire = uint64(len(blob)), uint64(len(blob))
	var dir2 *criu.ImageDir
	if err := tr.do("image.unmarshal", func() (err error) {
		dir2, err = criu.UnmarshalImageDir(blob)
		return err
	}); err != nil {
		return nil, err
	}
	m.restoreBytes = dir2.Size()
	if err := tr.do("criu.restore", func() (err error) {
		m.proc, err = criu.RestoreWith(dst.K, dir2, dst.Binaries, criu.RestoreOpts{})
		return err
	}); err != nil {
		return nil, err
	}
	if !lazy {
		tr.run("kernel.reap", func() { src.K.Reap(p) })
		return m, nil
	}

	// Post-copy: the paused source serves the pages left behind.
	var srv *criu.PageServer
	var client *criu.RemotePageSource
	if err := tr.do("criu.lazy_setup", func() error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv = criu.ServePagesOn(ln, criu.NewProcessPageSource(p))
		if client, err = criu.DialPageServerOpts(srv.Addr(), criu.PageClientOpts{Codec: criu.CodecNone}); err != nil {
			return errors.Join(err, srv.Close())
		}
		criu.InstallLazyHandler(m.proc, client)
		return nil
	}); err != nil {
		return nil, err
	}
	m.pages = func() (criu.PageServerStats, criu.PageClientStats) { return srv.Stats(), client.Stats() }
	m.close = func() error {
		err := errors.Join(client.Close(), srv.Close())
		src.K.Reap(p)
		return err
	}
	m.probes = func() error {
		// FetchPage sits inside the guest's fault path and cannot be
		// split out of the serve phase, so time it on pages the script
		// left behind: the highest lazy addresses are value payloads.
		ps, err := criu.LoadPageSet(dir)
		if err != nil {
			return err
		}
		addrs := make([]uint64, 0, len(ps.LazyPages))
		for a := range ps.LazyPages {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] > addrs[j] })
		if len(addrs) > pageProbes {
			addrs = addrs[:pageProbes]
		}
		for _, a := range addrs {
			if err := tr.do("criu.page_fetch", func() error {
				_, err := client.FetchPage(a)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}
	return m, nil
}

// rewrite is the recode stage: the cross-ISA policy, then the optional
// stack shuffle, whose binary must be published on the destination too.
func (f *fixture) rewrite(op int, tr *tracer, dir *criu.ImageDir, src, dst *cluster.Node) error {
	ctx := &core.Context{Binaries: src.Binaries}
	if err := tr.do("core.rewrite", func() error {
		return core.CrossISAPolicy{Target: dst.Spec.Arch}.Rewrite(dir, ctx)
	}); err != nil {
		return err
	}
	if f.mode != modeShuffle {
		return nil
	}
	return tr.do("core.shuffle", func() error {
		if err := (core.StackShufflePolicy{Seed: f.shuffleSeed(op)}).Rewrite(dir, ctx); err != nil {
			return err
		}
		path, err := exePath(dir)
		if err != nil {
			return err
		}
		bin, err := src.Binaries.Open(path)
		if err != nil {
			return err
		}
		dst.Binaries.Register(path, bin)
		return nil
	})
}

func exePath(dir *criu.ImageDir) (string, error) {
	raw, ok := dir.Get("files.img")
	if !ok {
		return "", errors.New("image directory missing files.img")
	}
	files, err := criu.UnmarshalFiles(raw)
	if err != nil {
		return "", err
	}
	return files.ExePath, nil
}

// verifyTarget is Migrate's source-side version-skew pre-flight: the
// rewritten image against the binary the destination restores into.
func verifyTarget(dir *criu.ImageDir, bins criu.BinaryProvider) error {
	path, err := exePath(dir)
	if err != nil {
		return err
	}
	bin, err := bins.Open(path)
	if err != nil {
		return err
	}
	return imgcheck.VerifyTargetBinary(dir, &updatecheck.Binary{
		Arch: bin.Arch, Text: bin.Text, Symbols: bin.Symbols, Meta: bin.Meta,
	})
}

// stagedPreCopy re-enacts the iterative path: full dump, then soft-dirty
// XOR-delta rounds shipped flate-compressed over loopback TCP while the
// source keeps serving, then flatten, rewrite and restore. The round
// count is the one the set-up rehearsal observed; Migrate's convergence
// rule is a function of the same inputs.
func (f *fixture) stagedPreCopy(tr *tracer, src, dst *cluster.Node, p *kernel.Process) (*migrated, error) {
	m := &migrated{rounds: f.rounds, close: func() error { return nil }}
	var recv *cluster.ImageReceiver
	if err := tr.do("cluster.listen", func() (err error) {
		recv, err = cluster.ListenImages("127.0.0.1:0")
		return err
	}); err != nil {
		return nil, err
	}
	// Close is idempotent: on the success path the traced close below has
	// already returned its result, on an error path that error wins.
	defer func() { _ = recv.Close() }()

	mon := monitor.New(src.K, p, f.pair.Meta)
	var chain, sent []*criu.ImageDir
	var parent *criu.ImageDir
	var base *criu.PageSet
	for round := 0; round < f.rounds; round++ {
		if err := tr.do("monitor.pause", func() error { return mon.Pause(1 << 20) }); err != nil {
			return nil, err
		}
		name := "criu.dump"
		dopts := criu.DumpOpts{Parent: parent, TrackMem: true}
		if parent != nil {
			name, dopts.DeltaBase = "criu.dump_incr", base
		}
		var dir *criu.ImageDir
		if err := tr.do(name, func() (err error) {
			dir, err = criu.Dump(p, dopts)
			return err
		}); err != nil {
			return nil, err
		}
		if round == 0 {
			m.dumpBytes = dir.Size()
		} else {
			m.deltaPages += criu.DumpedPages(dir)
		}
		if err := tr.do("criu.advance_base", func() (err error) {
			base, err = criu.AdvanceBase(base, dir)
			return err
		}); err != nil {
			return nil, err
		}
		var got *criu.ImageDir
		if err := tr.do("cluster.send_recv", func() error {
			raw, wire, err := cluster.SendImagesOpts(recv.Addr(), dir, cluster.SendOpts{Codec: criu.CodecFlate})
			if err != nil {
				return err
			}
			m.imageBytes += raw
			m.wire += wire
			got, err = recv.TakeWait(2 * time.Second)
			return err
		}); err != nil {
			return nil, err
		}
		if err := tr.do("imgcheck.verify", func() error {
			return imgcheck.VerifyLinkWith(got, imgcheck.Opts{})
		}); err != nil {
			return nil, err
		}
		chain, sent, parent = append(chain, got), append(sent, dir), dir
		if round == f.rounds-1 {
			break
		}
		if err := tr.do("monitor.resume", mon.ResumeLocal); err != nil {
			return nil, err
		}
		f.pushBetween(p, round)
		if err := tr.do("vm.between_rounds", func() error { return runUntilIdle(src.K, p) }); err != nil {
			return nil, err
		}
	}
	if err := tr.do("imgcheck.verify", func() error {
		return imgcheck.VerifyChainWith(chain, imgcheck.Opts{})
	}); err != nil {
		return nil, err
	}
	var flat *criu.ImageDir
	if err := tr.do("criu.flatten", func() (err error) {
		flat, err = criu.FlattenChain(chain)
		return err
	}); err != nil {
		return nil, err
	}
	if err := f.rewrite(0, tr, flat, src, dst); err != nil {
		return nil, err
	}
	m.restoreBytes = flat.Size()
	if err := tr.do("criu.restore", func() (err error) {
		m.proc, err = criu.RestoreWith(dst.K, flat, dst.Binaries, criu.RestoreOpts{})
		return err
	}); err != nil {
		return nil, err
	}
	tr.run("kernel.reap", func() { src.K.Reap(p) })
	if err := tr.do("cluster.listen", recv.Close); err != nil {
		dst.K.Reap(m.proc)
		return nil, err
	}
	m.probes = func() error {
		// The flate calls sit inside SendImagesOpts and the receiver;
		// time them on the same bytes each round shipped.
		for _, dir := range sent {
			blob := dir.Marshal()
			var wire []byte
			var codec criu.Codec
			if err := tr.do("imgproto.compress", func() (err error) {
				wire, codec, err = criu.CodecFlate.Compress(blob)
				return err
			}); err != nil {
				return err
			}
			m.codecRaw += uint64(len(blob))
			m.codecWire += uint64(len(wire))
			if err := tr.do("imgproto.decompress", func() error {
				out, err := codec.Decompress(wire, len(blob))
				if err == nil && len(out) != len(blob) {
					err = fmt.Errorf("decompressed %d bytes of %d", len(out), len(blob))
				}
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}
	return m, nil
}
