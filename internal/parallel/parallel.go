// Package parallel is the migration pipeline's single worker-pool
// primitive: bounded fan-out with error joining, deterministic result
// placement, and optional telemetry. Every host-side hot path that fans
// out — dump page-shard collection, per-thread core rewrites, imgcheck
// sweeps, restore page preparation — goes through this package so the whole
// pipeline shares one parallelism knob (MigrateOpts.Workers) and one
// goroutine-hygiene story: a Pool joins every goroutine it launches
// before returning, and a Semaphore bounds fire-and-forget fan-out whose
// lifetime is reaped elsewhere.
//
// Determinism contract: callers write results into index i of a
// pre-sized slice from task i only, so the merged output is identical
// for any worker count. Workers==1 runs tasks inline in index order —
// the exact historical serial behavior, with no goroutines at all.
package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dapper-sim/dapper/internal/obs"
)

// Normalize maps a user-facing worker count to an effective one: values
// <= 0 select runtime.NumCPU() (the pipeline default), anything else is
// taken as given.
func Normalize(workers int) int {
	if workers <= 0 {
		return runtime.NumCPU()
	}
	return workers
}

// Pool is a bounded worker pool. The zero value is not useful; construct
// with New. A Pool holds no goroutines between calls — each ForEach
// spawns at most Workers()-1 helpers and joins them all before
// returning, so a Pool can never leak a goroutine past the call that
// used it.
type Pool struct {
	workers int
	reg     *obs.Registry
}

// New returns a pool running at most Normalize(workers) tasks at once.
func New(workers int) *Pool {
	return &Pool{workers: Normalize(workers)}
}

// WithObs attaches a telemetry registry: every ForEach batch observes
// "parallel.batch_ns" (wall time of the whole batch) and counts
// "parallel.tasks". A nil registry (or never calling WithObs) disables
// recording at the usual nil-safe ~1ns cost.
func (p *Pool) WithObs(reg *obs.Registry) *Pool {
	p.reg = reg
	return p
}

// Workers returns the pool's effective worker count.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ForEach runs fn(0..n-1), at most Workers() at a time, and returns the
// join of every error in task-index order. With one worker (or one
// task) it runs inline — serial order, zero goroutines. With more, the
// n tasks are pulled off a shared atomic cursor by min(workers, n)
// goroutines, all of which are joined before ForEach returns; a task
// panicking still leaves no goroutine behind (the panic propagates on
// the calling goroutine after the join).
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	start := time.Now()
	defer func() {
		if p != nil && p.reg != nil {
			p.reg.Counter("parallel.tasks").Add(uint64(n))
			p.reg.Histogram("parallel.batch_ns").Observe(time.Since(start))
		}
	}()
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var cursor atomic.Int64
	var panicked atomic.Value // first panic value, re-raised after the join
	var wg sync.WaitGroup
	body := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, r)
			}
		}()
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go body()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
	return errors.Join(errs...)
}

// Chunk is a half-open index range [Lo, Hi).
type Chunk struct{ Lo, Hi int }

// Chunks splits n items into at most workers contiguous ranges of
// near-equal size (never empty). Shard-local results concatenated in
// chunk order reproduce the serial iteration order exactly — the
// property the dump sharder and the imgcheck sweeps rely on for
// byte-identical output and stable diagnostics.
func Chunks(n, workers int) []Chunk {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	out := make([]Chunk, 0, workers)
	base, rem := n/workers, n%workers
	lo := 0
	for i := 0; i < workers; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Chunk{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Semaphore bounds fire-and-forget fan-out (e.g. the page client's
// prefetch goroutines) to a fixed number of concurrent holders. It is
// non-blocking by design: TryAcquire either takes a slot or reports
// that the bound is reached, so a producer can skip optional work
// instead of queueing behind it.
type Semaphore struct {
	slots chan struct{}
}

// NewSemaphore returns a semaphore with Normalize(n) slots.
func NewSemaphore(n int) *Semaphore {
	return &Semaphore{slots: make(chan struct{}, Normalize(n))}
}

// TryAcquire takes a slot if one is free.
func (s *Semaphore) TryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by TryAcquire.
func (s *Semaphore) Release() {
	select {
	case <-s.slots:
	default:
		panic("parallel: Release without a matching TryAcquire")
	}
}

// Cap returns the semaphore's slot count (the fan-out bound).
func (s *Semaphore) Cap() int { return cap(s.slots) }

// InUse returns the number of currently held slots (for tests and
// telemetry; the value is naturally racy while holders run).
func (s *Semaphore) InUse() int { return len(s.slots) }
