package experiments

import (
	"bytes"
	"compress/flate"
	"fmt"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// wirecodecDB is the rediska key count: enough page volume that round 0's
// image (1.6 MiB) is over the floor of CodecFlate's form trial, so the
// table sees the form the codec chooses, and small enough for bench-quick.
const wirecodecDB = 6000

// wirecodecServer boots a Xeon and a Pi and, on the Xeon, a rediska
// loaded with wirecodecDB keys and blocked in recv with nothing pending.
func wirecodecServer(c workloads.Class) (xeon, pi *cluster.Node, pair *compiler.Pair, p *kernel.Process, err error) {
	w, err := workloads.Get("rediska")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if xeon, pi, err = newPairOfNodes(w, c); err != nil {
		return nil, nil, nil, nil, err
	}
	if pair, err = workloads.CompilePair(w, c); err != nil {
		return nil, nil, nil, nil, err
	}
	if p, err = xeon.Start(w.Name); err != nil {
		return nil, nil, nil, nil, err
	}
	p.PushInput(workloads.RediskaLoad(wirecodecDB))
	for i := 0; i < 50_000_000; i++ {
		st, err := xeon.K.Step(p)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if st.Blocked == 1 && p.PendingInput() == 0 {
			p.TakeOutput()
			return xeon, pi, pair, p, nil
		}
	}
	return nil, nil, nil, nil, fmt.Errorf("rediska did not quiesce after loading %d keys", wirecodecDB)
}

// wirecodecPlainRef returns the size of round 0's image — the full dump
// of the loaded server every wirecodecRun ships first — and of its plain
// level-1 DEFLATE: what CodecFlate made of every payload before it chose
// a form, and the figure its choice must never exceed.
func wirecodecPlainRef(c workloads.Class) (image, deflated uint64, err error) {
	xeon, _, pair, p, err := wirecodecServer(c)
	if err != nil {
		return 0, 0, err
	}
	if err := monitor.New(xeon.K, p, pair.Meta).Pause(1 << 20); err != nil {
		return 0, 0, err
	}
	dir, err := criu.Dump(p, criu.DumpOpts{TrackMem: true})
	if err != nil {
		return 0, 0, err
	}
	blob := dir.Marshal()
	var out bytes.Buffer
	zw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		return 0, 0, err
	}
	if _, err := zw.Write(blob); err != nil {
		return 0, 0, err
	}
	if err := zw.Close(); err != nil {
		return 0, 0, err
	}
	return uint64(len(blob)), uint64(out.Len()), nil
}

// wirecodecRun migrates a loaded rediska under live pre-copy traffic with
// the given wire codec and delta setting, returning the breakdown and the
// run's telemetry report.
func wirecodecRun(c workloads.Class, codec criu.Codec, delta bool) (*cluster.Breakdown, *obs.Report, error) {
	xeon, pi, pair, p, err := wirecodecServer(c)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.New()
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		Obs:   reg,
		Codec: codec,
		Delta: delta,
		PreCopy: &cluster.PreCopyOpts{
			RunUntilIdle: true,
			BetweenRounds: func(p *kernel.Process, round int) {
				// The same bounded overwrite burst as fig7x: re-dirtied
				// pages are what delta encoding exists to shrink.
				for i := uint64(0); i < 32; i++ {
					k := (uint64(round)*32 + i) % wirecodecDB
					p.PushInput(workloads.RediskaSet(1000000+7*k, k))
				}
			},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := res.Close(); err != nil {
		return nil, nil, err
	}
	return &res.Breakdown, reg.Report(), nil
}

// Wirecodec measures what the transport's codec layers save on the wire
// for a live rediska pre-copy migration: per-segment flate, and XOR-delta
// encoding stacked under flate, against the uncompressed baseline (none).
// The run fails — not just under-reports — if the baseline carries
// anything but the image plus its framing, if the stacked codec does not
// actually shrink bytes-on-wire, if the delta encoder never fired, or if
// the form CodecFlate chose for round 0's image is larger than plain
// DEFLATE of it: a silent regression in any of these is exactly what
// this table gates in CI.
func Wirecodec(c workloads.Class) (*Table, error) {
	t := &Table{
		ID:        "wirecodec",
		Title:     "wire codecs on live rediska pre-copy: none vs flate vs delta+flate",
		Header:    []string{"mode", "rounds", "raw(KiB)", "wire(KiB)", "saved"},
		Telemetry: map[string]*obs.Report{},
	}
	configs := []struct {
		name  string
		codec criu.Codec
		delta bool
	}{
		{"none", criu.CodecNone, false},
		{"flate", criu.CodecFlate, false},
		{"delta+flate", criu.CodecFlate, true},
	}
	// The image stream's framing (docs/transport.md): a 16-byte header per
	// transfer plus a 9-byte header per segment.
	const streamHdr, segHdr = 16, 9
	refImage, refDeflated, err := wirecodecPlainRef(c)
	if err != nil {
		return nil, fmt.Errorf("wirecodec plain-DEFLATE reference: %w", err)
	}
	var baseWire, stackedWire uint64
	for _, cfg := range configs {
		bd, rep, err := wirecodecRun(c, cfg.codec, cfg.delta)
		if err != nil {
			return nil, fmt.Errorf("wirecodec %s: %w", cfg.name, err)
		}
		saved := "0.0%"
		if bd.ImageBytes > 0 {
			saved = fmt.Sprintf("%.1f%%", 100*(1-float64(bd.WireBytes)/float64(bd.ImageBytes)))
		}
		t.Rows = append(t.Rows, []string{
			cfg.name, fmt.Sprintf("%d", bd.Rounds), kb(bd.ImageBytes), kb(bd.WireBytes), saved,
		})
		t.Telemetry["rediska/"+cfg.name] = rep
		// Round 0 is the same full dump in every mode, one segment long.
		round0 := bd.RoundBytes[0] - streamHdr - segHdr
		switch {
		case cfg.name == "none":
			baseWire = bd.WireBytes
			if round0 != refImage {
				return nil, fmt.Errorf("wirecodec none: round 0 shipped a %d-byte image, the reference dump is %d bytes", round0, refImage)
			}
			// One transfer per round, each at least one segment: anything
			// else on the wire means the baseline transformed bytes.
			framing, rounds := bd.WireBytes-bd.ImageBytes, uint64(bd.Rounds)
			if bd.WireBytes < bd.ImageBytes || framing < rounds*(streamHdr+segHdr) || (framing-rounds*streamHdr)%segHdr != 0 {
				return nil, fmt.Errorf("wirecodec none: wire %d != image %d + framing of %d transfers; the baseline must not transform bytes",
					bd.WireBytes, bd.ImageBytes, rounds)
			}
		case round0 > refDeflated:
			return nil, fmt.Errorf("wirecodec %s: round 0 shipped %d bytes, plain DEFLATE of the same image is %d — the form trial chose the larger form",
				cfg.name, round0, refDeflated)
		case cfg.delta:
			stackedWire = bd.WireBytes
			if rep.Counters["dump.pages_delta"] == 0 {
				return nil, fmt.Errorf("wirecodec %s: delta encoder emitted no pages under live traffic", cfg.name)
			}
		}
	}
	if stackedWire >= baseWire {
		return nil, fmt.Errorf("wirecodec: delta+flate shipped %d bytes, uncompressed baseline %d — the codec stack saved nothing",
			stackedWire, baseWire)
	}
	t.Notes = append(t.Notes,
		"raw/wire bytes cover all pre-copy rounds plus the final transfer; saved = 1 - wire/raw",
		"delta rounds XOR re-dirtied pages against the chain, then flate compresses the batch; images decode byte-identically in every mode",
		"the run errors out if none carries more than image + framing, if delta+flate does not beat it on the wire, if no delta pages were encoded,",
		fmt.Sprintf("or if a flate row's round 0 is larger than plain level-1 DEFLATE of the same %.1f KiB image (%.1f KiB)", float64(refImage)/1024, float64(refDeflated)/1024))
	return t, nil
}
