package netserve

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// noLeak fails t if more goroutines run than before, after a grace
// period for the runtime to retire exiting ones.
func noLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// closeWithin closes s and fails t if Close takes longer than d.
func closeWithin(t *testing.T, s *Server, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("Close still blocked after %v", d)
		return nil
	}
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestCloseIdleConn: a client that connects and sends nothing leaves its
// handler blocked in a read; Close closes the connection under it.
func TestCloseIdleConn(t *testing.T) {
	before := runtime.NumGoroutine()
	reading := make(chan struct{})
	readErr := make(chan error, 1)
	s := Serve(listen(t), func(c net.Conn) {
		close(reading)
		_, err := c.Read(make([]byte, 1))
		readErr <- err
	})
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	<-reading
	if err := closeWithin(t, s, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-readErr; err == nil {
		t.Error("the idle handler's read succeeded after Close")
	}
	// The server closed its end: the client reads EOF.
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("client read after Close = %v, want EOF", err)
	}
	_ = c.Close() // the test's own end; the server side is what is checked
	noLeak(t, before)
}

// TestCloseMidRequest: a handler halfway through reading a request sees
// its connection fail, and Close waits for it to return.
func TestCloseMidRequest(t *testing.T) {
	before := runtime.NumGoroutine()
	started := make(chan struct{})
	returned := make(chan struct{})
	s := Serve(listen(t), func(c net.Conn) {
		defer close(returned)
		hdr := make([]byte, 4)
		if _, err := io.ReadFull(c, hdr); err != nil {
			return
		}
		close(started)
		// The body is eight bytes; the client sends four.
		_, _ = io.ReadFull(c, make([]byte, 8))
	})
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hdr:body")); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := closeWithin(t, s, time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-returned:
	default:
		t.Error("Close returned before the handler did")
	}
	noLeak(t, before)
}

// raceListener hands Accept one connection from inside Close, the way an
// accept that lands while the server shuts down does.
type raceListener struct {
	conns    chan net.Conn
	pending  net.Conn
	closeErr error
}

func (l *raceListener) Accept() (net.Conn, error) {
	c, ok := <-l.conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (l *raceListener) Close() error {
	if l.pending != nil {
		l.conns <- l.pending
	}
	close(l.conns)
	return l.closeErr
}

func (l *raceListener) Addr() net.Addr { return &net.UnixAddr{Name: "race", Net: "unix"} }

// TestAcceptDuringClose: a connection accepted after Close began is
// closed unserved.
func TestAcceptDuringClose(t *testing.T) {
	before := runtime.NumGoroutine()
	server, client := net.Pipe()
	defer client.Close()
	ln := &raceListener{conns: make(chan net.Conn, 1), pending: server}
	handled := make(chan struct{}, 1)
	s := Serve(ln, func(net.Conn) { handled <- struct{}{} })
	if err := closeWithin(t, s, time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-handled:
		t.Error("a connection accepted during Close was served")
	default:
	}
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("client read = %v, want EOF: the raced connection was left open", err)
	}
	noLeak(t, before)
}

// TestSecondCloseReturnsFirstError: Close is idempotent, and every call
// reports the listener's close error.
func TestSecondCloseReturnsFirstError(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("listener close failed")
	s := Serve(&raceListener{conns: make(chan net.Conn, 1), closeErr: boom}, func(net.Conn) {})
	if err := closeWithin(t, s, time.Second); !errors.Is(err, boom) {
		t.Fatalf("first Close = %v, want %v", err, boom)
	}
	if err := closeWithin(t, s, time.Second); !errors.Is(err, boom) {
		t.Fatalf("second Close = %v, want the first call's %v", err, boom)
	}
	noLeak(t, before)
}
