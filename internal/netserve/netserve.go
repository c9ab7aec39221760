// Package netserve is the one accept loop behind every server in the
// pipeline: the post-copy page server (criu), the image receiver
// (cluster) and dapperd's control socket (fleet). Each accepted
// connection runs its handler on a goroutine of its own, joined by Close,
// and is closed when the handler returns.
package netserve

import (
	"net"
	"sync"
)

// Server serves one listener until Close.
type Server struct {
	ln     net.Listener
	handle func(net.Conn)
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	closeOnce sync.Once
	closeErr  error
}

// Serve accepts connections on ln and runs handle on each. The server
// owns ln and every connection it accepts. The accept loop ends on the
// first accept error: either Close shut the listener or it failed, and
// in both cases there is nothing more to accept.
func Serve(ln net.Listener, handle func(net.Conn)) *Server {
	s := &Server{ln: ln, handle: handle, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close closes the listener and every open connection, then waits for
// the handlers; a handler blocked in a read or a write sees its
// connection fail. It is idempotent: extra calls return the first
// call's result, the listener's close error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		conns := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		s.closeErr = s.ln.Close()
		for _, c := range conns {
			// serve closes each conn when its handler returns; this forced
			// close races that benignly, so a double-close error carries
			// no signal.
			_ = c.Close()
		}
		s.wg.Wait()
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			// An accept that raced Close; there is no caller to report a
			// close failure to.
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	s.handle(conn)
	// The handler is done with the conn; Close may have closed it first,
	// so an error here is double-close noise.
	_ = conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}
