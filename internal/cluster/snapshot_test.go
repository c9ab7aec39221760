package cluster_test

import (
	"crypto/sha256"
	"math/rand"
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
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
// served request from writing into the bytes that arrived — which, in
// process, are the source directory's own. A kv_vanilla-shaped migration
// — 4000 keys, cross-ISA, the in-process hand-off — then 256 SET/GET
// pairs served on the destination must leave both directories marshaling
// to the bytes the source dumped. Through Migrate, Close records the
// breaks the serve phase paid as restore.cow_breaks.
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
	sum := sha256.Sum256(dir.Marshal())
	got, err := cluster.Transfer(dir)
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
	if sha256.Sum256(got.Marshal()) != sum || sha256.Sum256(dir.Marshal()) != sum {
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

// TestSharedImageServesBothSides: an in-process hand-off gives the
// destination the source's own bytes — a stop-and-copy directory is
// shared, not copied, and a pre-copy destination's chain links are the
// source's round dumps — and both of those alias the paused source's
// frames. A caller that gives up on a migration resumes the source
// (monitor.ResumeLocal, as the fleet's rollback does), so both processes
// can run over the same pages. Each is driven with its own SETs, to keys
// loaded before the dump and to new ones, then both GET every key either
// side set: each side must answer exactly as a server never migrated that
// got its commands, and the pages the destination restored from must hash
// as they did before either side served.
func TestSharedImageServesBothSides(t *testing.T) {
	for _, mode := range []string{"stop-and-copy", "pre-copy"} {
		t.Run(mode, func(t *testing.T) {
			xeon, pi, src, meta := loadedServer(t)
			var dst *kernel.Process
			var dir *criu.ImageDir // what dst was restored from
			if mode == "pre-copy" {
				res, flat, err := cluster.PreCopyKeepingSource(xeon, pi, src, meta, cluster.MigrateOpts{PreCopy: &cluster.PreCopyOpts{RunUntilIdle: true}})
				if err != nil {
					t.Fatal(err)
				}
				dst, dir = res.Proc, flat
			} else {
				if err := monitor.New(xeon.K, src, meta).Pause(1 << 20); err != nil {
					t.Fatal(err)
				}
				dump, err := criu.Dump(src, criu.DumpOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if err := (core.CrossISAPolicy{Target: pi.Spec.Arch}).Rewrite(dump, &core.Context{Binaries: xeon.Binaries}); err != nil {
					t.Fatal(err)
				}
				if dir, err = cluster.Transfer(dump); err != nil {
					t.Fatal(err)
				}
				if dst, err = criu.Restore(pi.K, dir, pi.Binaries); err != nil {
					t.Fatal(err)
				}
			}
			if err := monitor.New(xeon.K, src, meta).ResumeLocal(); err != nil {
				t.Fatal(err)
			}
			pages := func() [32]byte {
				b, _ := dir.Get(image.PagesName)
				return sha256.Sum256(b)
			}
			before := pages()

			// Both sides store before either reads, the destination first:
			// a store of its that reached a page the source still shares
			// shows in the source's replies, or in the copy the source's
			// own first store to that page makes.
			sides := []struct {
				name       string
				n, on      *cluster.Node // on runs the oracle
				p, oracle  *kernel.Process
				sets, gets [][]byte
				got, want  string
			}{{name: "destination", n: pi, p: dst}, {name: "source", n: xeon, p: src}}
			for i := range sides {
				s := &sides[i]
				s.on, _, s.oracle, _ = loadedServer(t)
				s.sets, s.gets = sharedKVScript(uint64(i))
				s.want = serveScript(t, s.on, s.oracle, s.sets)
				s.got = serveScript(t, s.n, s.p, s.sets)
			}
			for i := range sides {
				s := &sides[i]
				want := s.want + serveScript(t, s.on, s.oracle, s.gets)
				if len(want) < len(s.gets)*16 {
					t.Fatalf("the oracle answered %d bytes to %d GETs", len(want), len(s.gets))
				}
				if got := s.got + serveScript(t, s.n, s.p, s.gets); got != want {
					t.Errorf("the %s answered differently from a server never migrated that got its commands", s.name)
				}
			}
			if pages() != before {
				t.Error("serving on one side wrote into the pages both were restored over")
			}
		})
	}
}

// sharedKVScript is one side's commands: 64 SETs to keys loadedServer
// loaded and 64 to new keys, none of which the other side sets, and GETs
// of every key either side sets.
func sharedKVScript(side uint64) (sets, gets [][]byte) {
	loaded := func(s, i uint64) uint64 { return 1000000 + 7*(2000*s+30*i) }
	fresh := func(s, i uint64) uint64 { return 1<<33 + s<<20 + i }
	for i := uint64(0); i < 64; i++ {
		sets = append(sets, workloads.RediskaSet(loaded(side, i), 0xA<<40|side<<32|i), workloads.RediskaSet(fresh(side, i), side<<32|i))
	}
	for s := uint64(0); s < 2; s++ {
		for i := uint64(0); i < 64; i++ {
			gets = append(gets, workloads.RediskaGet(loaded(s, i)), workloads.RediskaGet(fresh(s, i)))
		}
	}
	return sets, gets
}

// serveScript runs cmds on an idle server and returns what it answered to
// them alone.
func serveScript(t *testing.T, n *cluster.Node, p *kernel.Process, cmds [][]byte) string {
	t.Helper()
	p.TakeOutput()
	for _, c := range cmds {
		p.PushInput(c)
	}
	quiesce(t, n, p)
	return string(p.TakeOutput())
}
