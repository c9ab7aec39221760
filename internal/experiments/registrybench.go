package experiments

import (
	"fmt"
	"os"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/registry"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// registryDB is how many keys the rediska server holds during the sweep.
const registryDB = 800

// registryFanouts are the clone fan-out widths of the latency sweep.
var registryFanouts = []int{1, 4, 16}

// Registry measures the persistent content-addressed checkpoint store
// (docs/registry.md) in both directions: the dedup hit-rate across
// successive dumps of one evolving rediska server, and the latency of
// fanning one stored checkpoint out onto N nodes with copy-on-write
// page sharing. The run hard-fails if cross-dump dedup never hits (the
// store would be a plain copy), if clones share no frames, or if any
// clone answers queries differently from its siblings.
func Registry(c workloads.Class) (*Table, error) {
	w, err := workloads.Get("rediska")
	if err != nil {
		return nil, err
	}
	f, err := newFixture(w, c)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "dapper-registrybench")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort temp cleanup
	reg := obs.New()
	store, err := registry.Open(dir, registry.Opts{Obs: reg})
	if err != nil {
		return nil, err
	}
	defer func() { _ = store.Close() }() // pushes already fsync'd; close is teardown

	t := &Table{
		ID:    "registry",
		Title: fmt.Sprintf("checkpoint registry: cross-dump dedup and clone fan-out (rediska %d keys, class %s)", registryDB, c),
		Header: []string{"phase", "chunks new", "chunks hit", "hit-rate", "KB elided",
			"shared frames", "pull", "restore"},
		Notes: []string{
			"pushes are three checkpoints of one rediska server: after the initial load, then",
			"after two rounds of 64 overwrites; hit-rate is chunks already stored / chunks",
			"offered — the later snapshots dirty few table pages, so most chunks dedup.",
			"clones restore the last checkpoint onto N nodes sharing resident page frames",
			"COW until first write; every clone then answers the same queries and the run",
			"hard-fails on zero cross-dump hits, zero shared frames, or divergent answers.",
		},
		Telemetry: map[string]*obs.Report{},
	}

	// The server: load the database, then checkpoint after each burst of
	// writes. Dumps of one evolving process are exactly the cross-dump
	// workload the chunk store exists for.
	p, err := f.xeon.Start(w.Name)
	if err != nil {
		return nil, err
	}
	p.PushInput(workloads.RediskaLoad(registryDB))
	if err := f.drain(p); err != nil {
		return nil, err
	}

	var manifest string
	for round := 0; round < 3; round++ {
		if round > 0 {
			for i := uint64(0); i < 64; i++ {
				k := (uint64(round)*64 + i) % registryDB
				p.PushInput(workloads.RediskaSet(1000000+7*k, k+uint64(round)))
			}
			if err := f.drain(p); err != nil {
				return nil, err
			}
		}
		mon := monitor.New(f.xeon.K, p, f.pair.Meta)
		if err := mon.Pause(1 << 22); err != nil {
			return nil, err
		}
		img, err := criu.Dump(p, criu.DumpOpts{})
		if err != nil {
			return nil, err
		}
		m, pst, err := store.Push(img)
		if err != nil {
			return nil, err
		}
		// Abort the transformation so the server keeps serving: the next
		// round's writes come from the same live process.
		if err := mon.ResumeLocal(); err != nil {
			return nil, err
		}
		offered := pst.ChunksHit + pst.ChunksNew
		if round > 0 && pst.ChunksHit == 0 {
			return nil, fmt.Errorf("registry: dump %d hit 0 of %d chunks; cross-dump dedup is broken", round+1, offered)
		}
		manifest = m.ID
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("push #%d", round+1),
			fmt.Sprintf("%d", pst.ChunksNew),
			fmt.Sprintf("%d", pst.ChunksHit),
			fmt.Sprintf("%.2f", float64(pst.ChunksHit)/float64(offered)),
			kb(pst.BytesElided),
			"-", "-", "-",
		})
	}

	// Clone fan-out from the last checkpoint. Every clone is an identical
	// warm server; each answers the same query batch and all answers must
	// agree byte for byte.
	for _, n := range registryFanouts {
		targets := make([]*cluster.Node, n)
		for i := range targets {
			targets[i] = cluster.NewNode(cluster.XeonSpec)
			targets[i].Install(w.Name, f.pair)
		}
		res, err := cluster.CloneFromRegistry(store, manifest, targets, cluster.CloneOpts{Obs: reg})
		if err != nil {
			return nil, err
		}
		if res.SharedPages == 0 {
			return nil, fmt.Errorf("registry: clone N=%d shares no frames", n)
		}
		var want string
		for i, cp := range res.Procs {
			if cp.AS.SharedResidentPages() == 0 {
				return nil, fmt.Errorf("registry: clone %d/%d has no COW-shared resident pages", i, n)
			}
			for k := uint64(0); k < registryDB; k += 20 {
				cp.PushInput(workloads.RediskaGet(1000000 + 7*k))
			}
			cp.CloseInput()
			if err := targets[i].K.Run(cp); err != nil {
				return nil, fmt.Errorf("registry: run clone %d/%d: %w", i, n, err)
			}
			got := string(cp.TakeOutput())
			if got == "" {
				return nil, fmt.Errorf("registry: clone %d/%d answered nothing", i, n)
			}
			if i == 0 {
				want = got
			} else if got != want {
				return nil, fmt.Errorf("registry: clone %d/%d answers diverged", i, n)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("clone N=%d", n),
			"-", "-", "-", "-",
			fmt.Sprintf("%d", res.SharedPages),
			ms(res.PullHost),
			ms(res.RestoreHost),
		})
	}
	t.Telemetry["registry"] = reg.Report()
	return t, nil
}
