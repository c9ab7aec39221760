// Lazymigration: post-copy migration of a live key/value store, with the
// page server running over a real TCP socket — the paper's Redis
// lazy-migration experiment end to end.
//
// The rediska server is bulk-loaded, then migrated x86 -> arm while
// blocked in recv. Only the stack/TLS/flag pages travel eagerly; the
// database pages are fetched on demand from the source node's page server
// as the restored process touches them.
package main

import (
	"fmt"
	"log"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	w, err := workloads.Get("rediska")
	if err != nil {
		return err
	}
	pair, err := workloads.CompilePair(w, workloads.ClassA)
	if err != nil {
		return err
	}
	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install(w.Name, pair)
	pi.Install(w.Name, pair)

	p, err := xeon.Start(w.Name)
	if err != nil {
		return err
	}
	const dbKeys = 5000
	p.PushInput(workloads.RediskaLoad(dbKeys))
	for i := 0; i < 10_000_000; i++ {
		st, err := xeon.K.Step(p)
		if err != nil {
			return err
		}
		if st.Blocked == 1 && p.PendingInput() == 0 {
			break
		}
	}
	p.TakeOutput()
	fmt.Printf("rediska loaded with %d keys (%d KiB resident) on %s\n",
		dbKeys, p.AS.ResidentBytes()/1024, xeon.Spec.Name)

	// LazyTCP serves the post-copy pages over a REAL TCP page server, as
	// the cross-node deployment would: one request per fault, with a
	// per-fetch deadline, retry and reconnect.
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		Lazy:    true,
		LazyTCP: true,
	})
	if err != nil {
		return err
	}
	// Close tears down the page server and client; a failure there means
	// leaked plumbing and should fail the example (without masking an
	// earlier error).
	defer func() {
		if cerr := res.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	bd := res.Breakdown
	fmt.Printf("post-copy migration to %s: images %d B, checkpoint=%v recode=%v copy=%v restore=%v\n",
		pi.Spec.Name, bd.ImageBytes, bd.Checkpoint, bd.Recode, bd.Copy, bd.Restore)
	fmt.Printf("page server up; destination faults pages over TCP\n\n")

	// Query the migrated store: every page it touches is pulled over the
	// socket on first access.
	p2 := res.Proc
	query := func(key uint64) ([]uint64, error) {
		p2.PushInput(workloads.RediskaGet(key))
		for i := 0; i < 10_000_000; i++ {
			if _, err := pi.K.Step(p2); err != nil {
				return nil, err
			}
			if out := p2.TakeOutput(); len(out) > 0 {
				return workloads.ParseWords(out), nil
			}
		}
		return nil, fmt.Errorf("no response")
	}
	for _, k := range []uint64{0, 123, 4999} {
		key := uint64(1000000 + 7*k)
		r, err := query(key)
		if err != nil {
			return err
		}
		want := k*k + 3
		status := "OK"
		if r[0] != 1 || r[1] != want {
			status = fmt.Sprintf("WRONG (want %d)", want)
		}
		fmt.Printf("GET key[%d] -> %v  %s\n", k, r, status)
	}
	p2.CloseInput()
	if err := pi.K.Run(p2); err != nil {
		return err
	}
	res.FinalizeLazyStats()
	cst := res.PageClientStats()
	fmt.Printf("\nserved all queries after post-copy migration; %d KiB now resident on the destination\n",
		p2.AS.ResidentBytes()/1024)
	fmt.Printf("page server served %d requests (%d KiB); client: %d fetches, %d retries\n",
		res.Breakdown.LazyFetches, res.Breakdown.LazyBytes/1024, cst.Fetches, cst.Retries)
	return nil
}
