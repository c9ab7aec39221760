package core

import (
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/parallel"
)

// rewriteThreads applies RewriteThread to every live thread named by the
// inventory, fanning the per-thread work out over ctx.Workers. It is the
// shared rewrite stage behind CrossISAPolicy and StackShufflePolicy.
//
// Concurrency model: RewriteThread only touches the page set inside its
// thread's [StackLow, StackHigh) (snapshotting, dropping, rebuilding the
// stack), and thread stacks are disjoint VMAs. Each worker therefore
// rewrites against a private ExtractRange view of its own stack range;
// the views are absorbed back serially after the join, so any worker
// count yields the same page set as the historical serial loop.
//
// The returned blobs are the marshaled core images, index-aligned with
// the returned cores; callers Put exactly these bytes into the image
// directory.
func rewriteThreads(dir *criu.ImageDir, ps *criu.PageSet, tids []int, src, dst Side, ctx *Context, errPrefix string) ([]*criu.CoreImage, [][]byte, error) {
	start := time.Now()
	cores := make([]*criu.CoreImage, len(tids))
	for i, tid := range tids {
		raw, ok := dir.Get(criu.CoreName(tid))
		if !ok {
			return nil, nil, fmt.Errorf("core: missing %s", criu.CoreName(tid))
		}
		c, err := criu.UnmarshalCore(raw)
		if err != nil {
			return nil, nil, err
		}
		cores[i] = c
	}
	newCores := make([]*criu.CoreImage, len(cores))
	blobs := make([][]byte, len(cores))
	subs := make([]*criu.PageSet, len(cores))
	pool := parallel.New(ctx.Workers)
	err := pool.ForEach(len(cores), func(i int) error {
		c := cores[i]
		sub := ps.ExtractRange(c.StackLow, c.StackHigh)
		nc, err := RewriteThread(c, sub, src, dst)
		if err != nil {
			return fmt.Errorf("%s %d: %w", errPrefix, c.TID, err)
		}
		subs[i] = sub
		newCores[i] = nc
		blobs[i] = nc.Marshal()
		return nil
	})
	ctx.Obs.Counter("rewrite.threads").Add(uint64(len(cores)))
	ctx.Obs.Histogram("rewrite.par_ns").Observe(time.Since(start))
	if err != nil {
		return nil, nil, err
	}
	for i, sub := range subs {
		ps.AbsorbRange(sub, cores[i].StackLow, cores[i].StackHigh)
	}
	return newCores, blobs, nil
}
