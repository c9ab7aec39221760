package cluster

import (
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/criu"
)

// TestTakeWaitCollapsedSignal reproduces the lost wakeup deterministically
// (satellite: TakeWait): two arrivals whose signals collapsed into the one
// buffered notify token — the state the serve goroutines reach whenever
// both append before either waiter is scheduled. The first waiter consumes
// the token and one directory; before the re-signal fix in Take, the
// second waiter slept its full timeout next to the other directory.
func TestTakeWaitCollapsedSignal(t *testing.T) {
	r, err := ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	waitErrs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func() {
			_, err := r.TakeWait(2 * time.Second)
			waitErrs <- err
		}()
	}
	// Both waiters must be parked in the select before the injection.
	time.Sleep(50 * time.Millisecond)

	// Two arrivals, one token: exactly what receive produces when both
	// connections append before either signal lands a parked receiver.
	d1 := criu.NewImageDir()
	d1.Put("inventory.img", []byte{1})
	d2 := criu.NewImageDir()
	d2.Put("inventory.img", []byte{2})
	r.mu.Lock()
	r.recv = append(r.recv, d1, d2)
	r.mu.Unlock()
	r.notify <- struct{}{}

	for w := 0; w < 2; w++ {
		if err := <-waitErrs; err != nil {
			t.Fatalf("a waiter starved beside a queued directory: %v", err)
		}
	}
}
