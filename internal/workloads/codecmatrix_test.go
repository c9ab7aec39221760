package workloads_test

import (
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestPreCopyCodecMatrix is the transport-codec acceptance gate: a live
// rediska pre-copy migration, run under every combination of wire codec
// (none / flate) and delta encoding, must produce a byte-identical reply
// stream — and the raw image bytes must be identical across codecs (the
// codec is purely a wire encoding). Run under -race in CI.
func TestPreCopyCodecMatrix(t *testing.T) {
	w, err := workloads.Get("rediska")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	const db = 400
	const nbatch, perBatch = 6, 16
	batch := func(j int) [][]byte {
		var cmds [][]byte
		for i := 0; i < perBatch; i++ {
			cmds = append(cmds, workloads.RediskaSet(uint64(5000+j*perBatch+i), uint64(j*1000+i)))
		}
		return cmds
	}

	// Native reference: same load and batches, uninterrupted.
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install(w.Name, pair)
	rp, err := ref.Start(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	rp.PushInput(workloads.RediskaLoad(db))
	for j := 0; j < nbatch; j++ {
		for _, c := range batch(j) {
			rp.PushInput(c)
		}
	}
	rp.CloseInput()
	if err := ref.K.Run(rp); err != nil {
		t.Fatal(err)
	}
	want := string(rp.TakeOutput())

	run := func(t *testing.T, codec criu.Codec, delta bool) *cluster.Breakdown {
		t.Helper()
		xeon := cluster.NewNode(cluster.XeonSpec)
		pi := cluster.NewNode(cluster.PiSpec)
		xeon.Install(w.Name, pair)
		pi.Install(w.Name, pair)
		p, err := xeon.Start(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		p.PushInput(workloads.RediskaLoad(db))
		drainRediska(t, xeon, p)
		next := 0
		res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
			Codec: codec,
			Delta: delta,
			PreCopy: &cluster.PreCopyOpts{
				RunUntilIdle: true,
				BetweenRounds: func(p *kernel.Process, round int) {
					if next < nbatch {
						for _, c := range batch(next) {
							p.PushInput(c)
						}
						next++
					}
				},
			},
		})
		if err != nil {
			t.Fatalf("migrate: %v", err)
		}
		got := string(p.TakeOutput())
		for ; next < nbatch; next++ {
			for _, c := range batch(next) {
				res.Proc.PushInput(c)
			}
		}
		res.Proc.CloseInput()
		if err := pi.K.Run(res.Proc); err != nil {
			t.Fatalf("post-migration: %v", err)
		}
		got += string(res.Proc.TakeOutput())
		if got != want {
			t.Errorf("reply stream diverged: got %d bytes, want %d bytes", len(got), len(want))
		}
		return &res.Breakdown
	}

	// Baseline: no compression, no delta. CodecNone must
	// not transform bytes: the wire carries the image plus the stream's
	// framing — per round a 16-byte header and, every round here fitting
	// one 4 MiB segment, one 9-byte segment header.
	baseline := run(t, criu.CodecNone, false)
	if framing := uint64(baseline.Rounds) * (16 + 9); baseline.WireBytes != baseline.ImageBytes+framing {
		t.Errorf("none codec wire %d != image %d + framing %d; the uncompressed codec must not transform bytes",
			baseline.WireBytes, baseline.ImageBytes, framing)
	}

	// imageBytes[delta] pins the raw marshaled total per delta setting; it
	// must not vary with codec.
	imageBytes := map[bool]uint64{false: baseline.ImageBytes}
	rounds := map[bool]int{false: baseline.Rounds}
	var deltaFlateWire uint64
	for _, codec := range []criu.Codec{criu.CodecNone, criu.CodecFlate} {
		for _, delta := range []bool{false, true} {
			codec, delta := codec, delta
			name := codec.String()
			if delta {
				name += "-delta"
			} else {
				name += "-plain"
			}
			t.Run(name, func(t *testing.T) {
				bd := run(t, codec, delta)
				if prev, ok := imageBytes[delta]; ok {
					if bd.ImageBytes != prev {
						t.Errorf("ImageBytes = %d, want %d: images must be byte-identical across codecs",
							bd.ImageBytes, prev)
					}
					if bd.Rounds != rounds[delta] {
						t.Errorf("Rounds = %d, want %d: the codec must not change convergence",
							bd.Rounds, rounds[delta])
					}
				} else {
					imageBytes[delta] = bd.ImageBytes
					rounds[delta] = bd.Rounds
				}
				if codec == criu.CodecFlate && bd.WireBytes >= bd.ImageBytes {
					t.Errorf("flate wire %d not below image %d", bd.WireBytes, bd.ImageBytes)
				}
				if codec == criu.CodecFlate && delta {
					deltaFlateWire = bd.WireBytes
				}
			})
		}
	}
	// The headline saving: delta+flate must beat the uncompressed baseline
	// on the wire.
	if deltaFlateWire != 0 && deltaFlateWire >= baseline.WireBytes {
		t.Errorf("delta+flate wire %d not below uncompressed baseline %d", deltaFlateWire, baseline.WireBytes)
	}
}
