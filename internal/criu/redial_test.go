package criu

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/mem"
)

// serveHelloThenGarbage is the pathological peer the redial guard exists
// for: it accepts every connection, answers the hello correctly, and then
// answers the first page request with bytes that violate the response
// framing — over and over, on every redial, forever.
func serveHelloThenGarbage(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer func() { _ = conn.Close() }() // teardown of a deliberately broken conn
				req, err := readPageRequest(conn)
				if err != nil || !isHelloRequest(req) {
					return
				}
				if err := writeHelloAck(conn, imgproto.CodecNone); err != nil {
					return
				}
				if _, err := readPageRequest(conn); err != nil {
					return
				}
				// A full header of bad magic: the client must desync (a
				// short write would read as a plain EOF).
				garbage := make([]byte, pageRespHdrLen+4)
				for i := range garbage {
					garbage[i] = 0xFF
				}
				_, _ = conn.Write(garbage)
			}(conn)
		}
	}()
}

// TestRedialBudgetExhausted pins the bounded-redial guard: against a
// server that accepts and negotiates but then breaks framing on every
// incarnation, the client must stop redialing after RedialBudget
// consecutive failures and fail fast with ErrRedialExhausted — not burn
// a full dial+timeout cycle per retry of every faulted page. Before the
// guard this test failed: the fetch error was a generic desync after
// MaxRetries+1 dials, Stats had no RedialsExhausted, and a second fetch
// dialed the hopeless server all over again.
func TestRedialBudgetExhausted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }() // test server teardown
	serveHelloThenGarbage(t, ln)

	var dials atomic.Uint64
	const budget = redialBudget
	c, err := DialPageServerOpts(ln.Addr().String(), PageClientOpts{
		Codec:        imgproto.CodecNone,
		MaxRetries:   20,
		RetryBackoff: time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }() // close after server is gone is still clean

	if _, err := c.FetchPage(0 * mem.PageSize); !errors.Is(err, ErrRedialExhausted) {
		t.Fatalf("fetch error = %v, want ErrRedialExhausted", err)
	}
	// The budget bounds total incarnations: the eager dial plus redials,
	// never one per retry attempt.
	if got := dials.Load(); got > budget {
		t.Errorf("dialed %d times, want <= %d (MaxRetries is 20)", got, budget)
	}
	st := c.Stats()
	if st.RedialsExhausted != 1 {
		t.Errorf("RedialsExhausted = %d, want 1", st.RedialsExhausted)
	}
	if st.Desyncs != budget {
		t.Errorf("Desyncs = %d, want one per garbage frame (%d)", st.Desyncs, budget)
	}

	// The poison is sticky: the next fetch fails immediately, without a
	// single new dial.
	before := dials.Load()
	if _, err := c.FetchPage(1 * mem.PageSize); !errors.Is(err, ErrRedialExhausted) {
		t.Fatalf("second fetch error = %v, want ErrRedialExhausted", err)
	}
	if got := dials.Load(); got != before {
		t.Errorf("exhausted client dialed again (%d -> %d dials)", before, got)
	}
}

// TestRedialBudgetResetsOnGoodFrame pins the other half of the guard's
// contract: failures must be *consecutive* to exhaust the budget. A
// server that recovers after a bad incarnation resets the count, so a
// long-lived client never accumulates its way into poison.
func TestRedialBudgetResetsOnGoodFrame(t *testing.T) {
	src := &mapSource{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServePagesOn(ln, src)
	defer srv.Close()

	// Connect for real, then fail the next (budget-1) dials, repeatedly:
	// with consecutive counting the client stays healthy forever; with
	// cumulative counting it would poison on the second cycle.
	const budget = redialBudget
	var dials atomic.Uint64
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{
		MaxRetries:   8,
		RetryBackoff: time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			if dials.Add(1)%budget != 1 {
				return nil, errors.New("transient dial failure")
			}
			return net.DialTimeout("tcp", addr, time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }() // plain teardown

	for cycle := 0; cycle < 3; cycle++ {
		page, err := c.FetchPage(uint64(cycle) * mem.PageSize)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		checkPage(t, uint64(cycle)*mem.PageSize, page)
		// Break the live conn so the next cycle starts from a redial.
		c.connMu.Lock()
		conn := c.conn
		c.connMu.Unlock()
		if conn != nil {
			c.drop(conn)
		}
	}
	if got := c.Stats().RedialsExhausted; got != 0 {
		t.Errorf("RedialsExhausted = %d after interleaved recoveries, want 0", got)
	}
}
