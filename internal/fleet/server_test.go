package fleet

import (
	"net"
	"path/filepath"
	"testing"
	"time"
)

// TestServerRoundTrip drives the whole control surface over a real unix
// socket: ping, submit, job/jobs, status, drain — the same calls
// dapperctl makes.
func TestServerRoundTrip(t *testing.T) {
	m := mixedFleet(t, fastConfig(), 2)
	defer stopManager(t, m)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	socket := filepath.Join(t.TempDir(), "d.sock")
	srv, err := Serve(m, socket)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()

	if _, err := Call(socket, Request{Op: OpPing}); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// A second daemon must refuse the live socket.
	if _, err := Serve(m, socket); err == nil {
		t.Fatal("second Serve on a live socket succeeded")
	}

	resp, err := Call(socket, Request{Op: OpSubmit, Spec: &JobSpec{Program: "counter"}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.JobID == 0 {
		t.Fatal("submit returned no job id")
	}

	if _, err := Call(socket, Request{Op: OpSubmit, Spec: &JobSpec{Program: "ghost"}}); err == nil {
		t.Error("submit of an unknown program succeeded over the wire")
	}
	if _, err := Call(socket, Request{Op: OpSubmit}); err == nil {
		t.Error("submit without a spec succeeded")
	}
	if _, err := Call(socket, Request{Op: "selfdestruct"}); err == nil {
		t.Error("unknown op succeeded")
	}
	if _, err := Call(socket, Request{Op: OpJob, JobID: 999}); err == nil {
		t.Error("lookup of a missing job succeeded")
	}
	if _, err := Call(socket, Request{Op: OpDrain, Node: "ghost"}); err == nil {
		t.Error("drain of an unknown node succeeded")
	}

	if err := m.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}

	jr, err := Call(socket, Request{Op: OpJob, JobID: resp.JobID})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Job == nil || jr.Job.State != "done" {
		t.Fatalf("job over the wire: %+v", jr.Job)
	}
	lr, err := Call(socket, Request{Op: OpJobs})
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Jobs) != 1 {
		t.Fatalf("jobs over the wire: %d", len(lr.Jobs))
	}

	sr, err := Call(socket, Request{Op: OpStatus})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Status == nil || sr.Status.Done != 1 || len(sr.Status.Nodes) != 4 {
		t.Fatalf("status over the wire: %+v", sr.Status)
	}

	dr, err := Call(socket, Request{Op: OpDrain, Node: "pi0"})
	if err != nil || !dr.OK {
		t.Fatalf("drain: %v", err)
	}
	rr, err := Call(socket, Request{Op: OpStatus})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Status == nil || rr.Status.Obs == nil {
		t.Fatal("status over the wire lost its obs payload")
	}
	drained := false
	for _, n := range rr.Status.Nodes {
		if n.Name == "pi0" && n.Drained {
			drained = true
		}
	}
	if !drained {
		t.Error("drain did not stick")
	}
	if _, err := Call(socket, Request{Op: OpDrain, Node: "pi0", Undrain: true}); err != nil {
		t.Fatal(err)
	}
}

// TestServerStaleSocket verifies a dead daemon's socket file is swept and
// the path reused.
func TestServerStaleSocket(t *testing.T) {
	m := mixedFleet(t, fastConfig(), 1)
	defer stopManager(t, m)
	socket := filepath.Join(t.TempDir(), "d.sock")
	srv, err := Serve(m, socket)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// net.Listener.Close on a unix socket removes the file; recreate a
	// stale one the way a crashed daemon leaves it.
	srv2, err := Serve(m, socket)
	if err != nil {
		t.Fatalf("reuse after close: %v", err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Call(socket, Request{Op: OpPing}); err == nil {
		t.Error("ping of a closed server succeeded")
	}
}

// TestServerCloseIdleClient verifies a client that connects and sends
// nothing does not hold Close: a SIGTERM'd dapperd closes its socket
// before Manager.Stop, so a wedged Close would keep the journal and the
// registry open.
func TestServerCloseIdleClient(t *testing.T) {
	m := mixedFleet(t, fastConfig(), 1)
	defer stopManager(t, m)
	socket := filepath.Join(t.TempDir(), "d.sock")
	srv, err := Serve(m, socket)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := net.Dial("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// Connections are accepted in order, so once this ping is answered the
	// idle one has a handler blocked reading its request.
	if _, err := Call(socket, Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close still blocked 1s after it was called, waiting on a client that sent nothing")
	}
}
