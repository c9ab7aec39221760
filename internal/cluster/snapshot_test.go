package cluster_test

import (
	"crypto/sha256"
	"math/rand"
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestPreCopyDeltaCarriesOverwrites: a pre-copy source that overwrites
// values round 0 already shipped must get every new value to the
// destination. With Delta the source encodes a re-dirtied page as its XOR
// against the chain's content as of the last round, content its dumps
// hold. Were a dump's pages the live frames rather than a snapshot, the
// source's own stores would reach that base too, the XOR would come out
// zero, and the page would be elided as a soft-dirty false positive: the
// destination would answer with the old values, and no check on the way
// would notice. Over TCP with flate, the destination's GETs are held to a
// server that was never migrated and got the same commands.
func TestPreCopyDeltaCarriesOverwrites(t *testing.T) {
	w, err := workloads.Get("rediska")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	// Round r's traffic gives 32 of the keys the load created (key i is
	// 1000000+7i) new values.
	const db, perRound = 400, 32
	var sent, gets [][]byte
	betweenRounds := func(p *kernel.Process, round int) {
		for i := uint64(0); i < perRound; i++ {
			k := 1000000 + 7*(uint64(round)*perRound+i)
			sent = append(sent, workloads.RediskaSet(k, 0xbeef0000+k))
			p.PushInput(sent[len(sent)-1])
			gets = append(gets, workloads.RediskaGet(k))
		}
	}

	xeon, pi := cluster.NewNode(cluster.XeonSpec), cluster.NewNode(cluster.PiSpec)
	xeon.Install(w.Name, pair)
	pi.Install(w.Name, pair)
	p, err := xeon.Start(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	p.PushInput(workloads.RediskaLoad(db))
	quiesce(t, xeon, p)
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		PreCopy: &cluster.PreCopyOpts{TCP: true, RunUntilIdle: true, BetweenRounds: betweenRounds},
		Delta:   true, Codec: criu.CodecFlate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Rounds < 2 {
		t.Fatalf("converged in %d round: no delta link to check", res.Breakdown.Rounds)
	}
	got := string(p.TakeOutput())
	for _, cmd := range gets {
		res.Proc.PushInput(cmd)
	}
	res.Proc.CloseInput()
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatal(err)
	}
	got += string(res.Proc.TakeOutput())

	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install(w.Name, pair)
	rp, err := ref.Start(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	rp.PushInput(workloads.RediskaLoad(db))
	for _, cmd := range append(sent, gets...) {
		rp.PushInput(cmd)
	}
	rp.CloseInput()
	if err := ref.K.Run(rp); err != nil {
		t.Fatal(err)
	}
	want := string(rp.TakeOutput())

	// Each GET reply is two words; they end both streams.
	const reply = 16
	if len(got) != len(want) || len(want) < len(gets)*reply {
		t.Fatalf("reply stream is %d bytes, the oracle's %d", len(got), len(want))
	}
	stale := 0
	for i := range gets {
		off := len(want) - (len(gets)-i)*reply
		if got[off:off+reply] != want[off:off+reply] {
			stale++
		}
	}
	if stale > 0 || got != want {
		t.Errorf("%d of %d overwritten keys read differently on the destination than on a server never migrated", stale, len(gets))
	}
}

// serveKV sends a kv_vanilla-shaped script to a migrated server and runs
// it until idle: pairs that SET a fresh key and GET one of the 4000 keys
// loadedServer loaded, so the replies depend on migrated memory.
func serveKV(t *testing.T, n *cluster.Node, p *kernel.Process, pairs int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < pairs; i++ {
		p.PushInput(workloads.RediskaSet(1<<33+uint64(rng.Int63n(1<<33)), uint64(rng.Int63())))
		p.PushInput(workloads.RediskaGet(1000000 + 7*uint64(rng.Intn(4000))))
	}
	quiesce(t, n, p)
	if len(p.TakeOutput()) == 0 {
		t.Fatal("the server answered nothing")
	}
}

// TestServeNeverWritesReceivedImage: the destination adopts the received
// pages.img as its frames, so the copy-on-write share is all that keeps a
// served request from writing into the bytes that arrived. A kv_vanilla-
// shaped migration — 4000 keys, cross-ISA, the in-process hand-off —
// then 256 SET/GET pairs served on the destination must leave the received
// directory parsing to the bytes it arrived as. Through Migrate, Close
// records the breaks the serve phase paid as restore.cow_breaks.
func TestServeNeverWritesReceivedImage(t *testing.T) {
	xeon, pi, p, meta := loadedServer(t)
	if err := monitor.New(xeon.K, p, meta).Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := (core.CrossISAPolicy{Target: pi.Spec.Arch}).Rewrite(dir, &core.Context{Binaries: xeon.Binaries}); err != nil {
		t.Fatal(err)
	}
	blob := dir.Marshal()
	sum := sha256.Sum256(blob)
	got, err := cluster.Transfer(blob)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := criu.Restore(pi.K, got, pi.Binaries)
	if err != nil {
		t.Fatal(err)
	}
	breaks := proc.AS.CowBreaks()
	serveKV(t, pi, proc, 256)
	if proc.AS.CowBreaks() == breaks {
		t.Error("serving broke no share: the test wrote no adopted page")
	}
	again, err := criu.UnmarshalImageDir(blob)
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(got.Marshal()) != sum || sha256.Sum256(again.Marshal()) != sum {
		t.Error("serving on the destination wrote into the image it was restored from")
	}

	xeon, pi, p, meta = loadedServer(t)
	reg := obs.New()
	res, err := cluster.Migrate(xeon, pi, p, meta, cluster.MigrateOpts{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	breaks = res.Proc.AS.CowBreaks()
	serveKV(t, pi, res.Proc, 256)
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	want := res.Proc.AS.CowBreaks() - breaks
	if n := reg.Counter("restore.cow_breaks").Value(); n != want || n == 0 {
		t.Errorf("restore.cow_breaks = %d, want the %d breaks since restore", n, want)
	}
	t.Logf("256 SETs broke %d of %d adopted pages", want, criu.DumpedPages(got))
}
