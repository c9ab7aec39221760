package criu

import (
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/mem"
)

// slowSource serves the synthetic page pattern after a fixed delay, so
// prefetch requests pile up against the fan-out bound.
type slowSource struct {
	inner mapSource
	delay time.Duration
}

func (s *slowSource) FetchPage(addr uint64) ([]byte, error) {
	time.Sleep(s.delay)
	return s.inner.FetchPage(addr)
}

// TestPrefetchFanoutBounded pins the prefetch goroutine bound: a window
// far larger than prefetchSlots must never have more than
// prefetchSlots requests in flight at once — the excess is skipped,
// not queued — and the realized peak is observable in Stats.
func TestPrefetchFanoutBounded(t *testing.T) {
	const bound = prefetchSlots
	src := &slowSource{delay: 10 * time.Millisecond}
	srv, err := ServePages("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{
		Prefetch: 64, // much larger than the bound
		Conns:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Several demand fetches at scattered bases open several big
	// prefetch windows back to back.
	for i := uint64(0); i < 4; i++ {
		base := (1000 + 200*i) * mem.PageSize
		page, err := c.FetchPage(base)
		if err != nil {
			t.Fatal(err)
		}
		checkPage(t, base, page)
	}
	// Quiesce: every prefetch goroutine holds a semaphore slot until it
	// exits, so an idle client has zero active slots.
	deadline := time.Now().Add(5 * time.Second)
	for c.prefActive.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("prefetches never drained: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	st := c.Stats()
	if st.PrefetchIssued == 0 {
		t.Fatal("no prefetch was issued; test exercised nothing")
	}
	if st.PrefetchPeak > bound {
		t.Errorf("prefetch peak %d exceeds the bound %d", st.PrefetchPeak, bound)
	}
	if st.PrefetchSkipped == 0 {
		t.Errorf("a 64-page window against a bound of %d skipped nothing: %+v", bound, st)
	}
	if got := st.PrefetchIssued + st.PrefetchSkipped; got < 4*64 {
		t.Errorf("windows not fully accounted: issued+skipped = %d, want >= %d", got, 4*64)
	}
}
