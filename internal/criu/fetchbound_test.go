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

// serveHelloThenGarbage is a peer that never speaks the protocol past its
// hello: it accepts every connection, answers the hello correctly, and
// then answers the first page request with bytes that violate the
// response framing — on every redial, forever.
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

// TestFetchBoundedByRetries: against a server that desyncs every
// connection, one fetch dials once per attempt — the eager dial, then a
// redial per retry — and MaxRetries is the only thing that stops it.
func TestFetchBoundedByRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }() // test server teardown
	serveHelloThenGarbage(t, ln)

	const retries = 20
	var dials atomic.Uint64
	c, err := DialPageServerOpts(ln.Addr().String(), PageClientOpts{
		MaxRetries:   retries,
		RetryBackoff: time.Millisecond,
		dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }() // plain teardown

	if _, err := c.FetchPage(0); !errors.Is(err, errPageDesync) {
		t.Fatalf("fetch error = %v, want a desync", err)
	}
	if got := dials.Load(); got != retries+1 {
		t.Errorf("dialed %d times, want %d (one per attempt)", got, retries+1)
	}
	if st := c.Stats(); st.Desyncs != retries+1 || st.Retries != retries {
		t.Errorf("stats %+v, want %d desyncs and %d retries", st, retries+1, retries)
	}
}

// TestCloseWaitsForFetchInFlight pins Close's contract: it does not abort
// a fetch in flight but waits for it, and every later fetch fails with
// ErrPageClientClosed.
func TestCloseWaitsForFetchInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	var served atomic.Bool
	slow := fetchFunc(func(addr uint64) ([]byte, error) {
		started <- struct{}{}
		time.Sleep(100 * time.Millisecond)
		served.Store(true)
		return pagePattern(addr), nil
	})
	srv := ServePagesOn(listen(t), slow)
	defer srv.Close()
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		page []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		page, err := c.FetchPage(mem.PageSize)
		done <- result{page, err}
	}()
	<-started
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !served.Load() {
		t.Error("Close returned before the fetch in flight was answered")
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("fetch in flight at Close: %v", r.err)
	}
	checkPage(t, mem.PageSize, r.page)
	if _, err := c.FetchPage(0); !errors.Is(err, ErrPageClientClosed) {
		t.Errorf("fetch after Close = %v, want ErrPageClientClosed", err)
	}
}
