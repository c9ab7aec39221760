package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"os"

	"github.com/dapper-sim/dapper/internal/netserve"
)

// Server exposes a Manager over a local socket. One request/response
// pair per connection (see api.go).
type Server struct {
	m   *Manager
	srv *netserve.Server
}

// Serve listens on the unix-domain socket at path (removing a stale
// socket file from a dead daemon first) and serves requests until Close.
func Serve(m *Manager, path string) (*Server, error) {
	if err := removeStaleSocket(path); err != nil {
		return nil, err
	}
	ln, err := net.Listen("unix", path)
	if err != nil {
		return nil, fmt.Errorf("fleet: listen %s: %w", path, err)
	}
	s := &Server{m: m}
	s.srv = netserve.Serve(ln, s.handle)
	return s, nil
}

// removeStaleSocket unlinks a socket file nothing is listening on. A
// live listener is left alone so two daemons cannot fight over one
// socket.
func removeStaleSocket(path string) error {
	if _, err := os.Stat(path); err != nil {
		return nil // nothing there (or it will fail at Listen with a real error)
	}
	conn, err := net.Dial("unix", path)
	if err == nil {
		// The probe connection served its purpose; the daemon behind it
		// treats the empty request as a failed decode and moves on.
		_ = conn.Close()
		return fmt.Errorf("fleet: socket %s already has a live daemon", path)
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("fleet: remove stale socket: %w", err)
	}
	return nil
}

// Addr returns the socket path.
func (s *Server) Addr() string { return s.srv.Addr() }

// handle serves one request; netserve closes conn when it returns.
func (s *Server) handle(conn net.Conn) {
	var req Request
	if err := json.NewDecoder(conn).Decode(&req); err != nil {
		return
	}
	resp := s.dispatch(req)
	// An encode failure means the client went away mid-response (or Close
	// cut the connection); the daemon has nothing to do about it.
	_ = json.NewEncoder(conn).Encode(resp)
}

func (s *Server) dispatch(req Request) Response {
	fail := func(err error) Response { return Response{Err: err.Error()} }
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpSubmit:
		if req.Spec == nil {
			return fail(fmt.Errorf("fleet: submit without a spec"))
		}
		id, err := s.m.Submit(*req.Spec)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, JobID: id}
	case OpJobs:
		return Response{OK: true, Jobs: s.m.Jobs()}
	case OpJob:
		v, ok := s.m.Job(req.JobID)
		if !ok {
			return fail(fmt.Errorf("fleet: no job %d", req.JobID))
		}
		return Response{OK: true, Job: &v}
	case OpStatus:
		return Response{OK: true, Status: s.m.Report()}
	case OpDrain:
		if err := s.m.Drain(req.Node, !req.Undrain); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	default:
		return fail(fmt.Errorf("fleet: unknown op %q", req.Op))
	}
}

// Close stops accepting, closes every open connection, waits for the
// handlers, and removes the socket file. A request already dispatching
// completes (a submit is still journaled), but its reply may be lost. It
// is idempotent: extra calls return the first call's result.
func (s *Server) Close() error {
	if err := s.srv.Close(); err != nil {
		return fmt.Errorf("fleet: close listener: %w", err)
	}
	return nil
}
