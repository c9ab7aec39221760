// Package parallel holds the pipeline's one concurrency primitive: a
// non-blocking counting Semaphore that bounds fire-and-forget fan-out
// whose goroutines are reaped elsewhere (inbound image transfers, fleet
// node and job slots).
package parallel

// Semaphore bounds fire-and-forget fan-out (e.g. the image receiver's
// per-transfer goroutines) to a fixed number of concurrent holders. It is
// non-blocking by design: TryAcquire either takes a slot or reports
// that the bound is reached, so a producer can skip optional work
// instead of queueing behind it.
type Semaphore struct {
	slots chan struct{}
}

// NewSemaphore returns a semaphore with n slots.
func NewSemaphore(n int) *Semaphore {
	return &Semaphore{slots: make(chan struct{}, n)}
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
