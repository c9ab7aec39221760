package criu

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// deadlineConn wraps a real connection and audits SetDeadline calls: how
// many times a deadline was armed, how many times it was cleared, and
// optionally fails the call — the two halves of the stale-deadline
// regression (a deadline left armed on a connection that outlives the
// fetch, and its error being ignored).
type deadlineConn struct {
	net.Conn
	mu          sync.Mutex
	setErr      error // returned from SetDeadline when non-nil...
	setErrAfter int   // ...once this many calls have gone through
	arms        int   // non-zero deadlines set
	clears      int   // zero-time deadlines (disarms)
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	if t.IsZero() {
		c.clears++
	} else {
		c.arms++
	}
	var err error
	if c.arms+c.clears > c.setErrAfter {
		err = c.setErr
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	//lint:ignore deadlinehygiene counting wrapper forwards t verbatim; arm/clear pairing is the caller's, which this test asserts via counts()
	return c.Conn.SetDeadline(t)
}

func (c *deadlineConn) counts() (arms, clears int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arms, c.clears
}

// TestPageClientClearsWriteDeadline: every armed deadline — the hello's
// and each fetch's — must be cleared once its exchange is over, so the
// connection never carries a stale deadline into a later fetch.
func TestPageClientClearsWriteDeadline(t *testing.T) {
	srv := ServePagesOn(listen(t), &mapSource{})
	defer srv.Close()
	var dc *deadlineConn
	var mu sync.Mutex
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{
		dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			dc = &deadlineConn{Conn: conn}
			return dc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < 3; i++ {
		if _, err := c.FetchPage(i * 4096); err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
	mu.Lock()
	conn := dc
	mu.Unlock()
	arms, clears := conn.counts()
	if arms != 4 {
		t.Errorf("deadline armed %d times for a hello and 3 fetches, want 4", arms)
	}
	if clears != arms {
		t.Errorf("deadline cleared %d times but armed %d: a stale deadline survives on the connection", clears, arms)
	}
}

// TestPageClientSurfacesDeadlineError: a transport whose SetDeadline
// fails cannot bound its exchanges — the error must fail the fetch
// attempt instead of being silently ignored.
func TestPageClientSurfacesDeadlineError(t *testing.T) {
	srv := ServePagesOn(listen(t), &mapSource{})
	defer srv.Close()
	sentinel := &net.OpError{Op: "set", Err: errors.New("deadlines unsupported")}
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{
		MaxRetries: 1, RetryBackoff: time.Millisecond,
		FetchTimeout: 200 * time.Millisecond,
		dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			// The hello's arm and clear go through, so the dial succeeds.
			return &deadlineConn{Conn: conn, setErr: sentinel, setErrAfter: 2}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.FetchPage(0); !errors.Is(err, sentinel) {
		t.Fatalf("fetch error = %v, want the deadline failure", err)
	}
}

// TestPageServerCloseRacesInflightFetch is the Close-vs-fault race: a
// fetch blocked inside the server's PageSource when the server shuts down
// must fail the client with a clean transport error — no hang — and the
// migration-level fault histogram must record the failed attempt.
func TestPageServerCloseRacesInflightFetch(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	slow := fetchFunc(func(addr uint64) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return pagePattern(addr), nil
	})
	srv := ServePagesOn(listen(t), slow)
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{
		FetchTimeout: 200 * time.Millisecond,
		MaxRetries:   2, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reg := obs.New()
	src := ObsSource(c, reg)
	done := make(chan error, 1)
	go func() {
		done <- src.ReadPage(0, new([mem.PageSize]byte))
	}()
	<-entered // the fetch is in flight inside the server's source

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	select {
	case err := <-done:
		if err == nil {
			t.Error("in-flight fetch succeeded across server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client fetch hung across server close")
	}
	close(release) // unblock the serving goroutine so Close can finish
	if err := <-closed; err != nil {
		t.Errorf("server close: %v", err)
	}

	rep := reg.Report()
	if got := rep.Counters["fault.errors"]; got != 1 {
		t.Errorf("fault.errors = %d, want 1", got)
	}
	h, ok := rep.Histograms["fault.service_ns"]
	if !ok || h.Count != 1 {
		t.Errorf("fault latency histogram count = %d, want 1 (failed attempts must be recorded)", h.Count)
	}
}
