package checks_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/analysis"
	"github.com/dapper-sim/dapper/internal/analysis/checks"
)

// lint parses src as a single file of a package at relPath and runs the
// given analyzers over it.
func lint(t *testing.T, relPath, src string, azs ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, relPath+"/src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return analysis.TestPackage(fset, relPath, []*ast.File{f}, azs)
}

// expect asserts the diagnostics' messages contain the given substrings,
// in order, and nothing else.
func expect(t *testing.T, diags []analysis.Diagnostic, wants ...string) {
	t.Helper()
	if len(diags) != len(wants) {
		t.Fatalf("got %d findings, want %d: %v", len(diags), len(wants), diags)
	}
	for i, w := range wants {
		if !strings.Contains(diags[i].Message, w) && !strings.Contains(diags[i].Check, w) {
			t.Errorf("finding %d = %v, want substring %q", i, diags[i], w)
		}
	}
}

func TestDeadlinehygiene(t *testing.T) {
	// Seeded: result dropped AND never cleared.
	diags := lint(t, "internal/criu", `package p
func f(c conn) {
	c.SetWriteDeadline(now())
}`, checks.Deadlinehygiene)
	expect(t, diags, "dropped", "never clears")

	// Seeded: checked but never cleared.
	diags = lint(t, "internal/criu", `package p
func f(c conn) error {
	if err := c.SetReadDeadline(now()); err != nil {
		return err
	}
	return nil
}`, checks.Deadlinehygiene)
	expect(t, diags, "never clears")

	// Compliant: checked arm, zero-time clear on the same receiver.
	diags = lint(t, "internal/criu", `package p
import "time"
func f(c conn) error {
	if err := c.SetWriteDeadline(now()); err != nil {
		return err
	}
	defer func() {
		_ = c.SetWriteDeadline(time.Time{})
	}()
	return nil
}`, checks.Deadlinehygiene)
	expect(t, diags)
}

func TestClosecheck(t *testing.T) {
	// Seeded: all three dropped forms.
	diags := lint(t, "internal/criu", `package p
func f(c conn) {
	c.Close()
	defer c.Close()
	go c.Close()
}`, checks.Closecheck)
	expect(t, diags, "dropped", "deferred", "races shutdown")

	// Compliant: checked and explicitly discarded.
	diags = lint(t, "internal/criu", `package p
func f(c conn) error {
	_ = c.Close()
	return c.Close()
}
func g(c conn) error {
	if err := c.Close(); err != nil {
		return err
	}
	return nil
}`, checks.Closecheck)
	expect(t, diags)
}

func TestClosecheckSkipsTests(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/criu/x_test.go", `package p
func f(c conn) { c.Close() }`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.TestPackage(fset, "internal/criu", []*ast.File{f}, []*analysis.Analyzer{checks.Closecheck})
	expect(t, diags)
}

func TestWallclock(t *testing.T) {
	src := `package p
import "time"
var t0 = time.Now()
func f() time.Duration { return time.Since(t0) }`

	// Seeded, inside a modeled-timing package (two findings).
	diags := lint(t, "internal/cluster", src, checks.Wallclock)
	expect(t, diags, "time.Now", "time.Since")

	// Identical code outside the scoped packages is fine.
	diags = lint(t, "internal/workloads", src, checks.Wallclock)
	expect(t, diags)

	// Aliased import is still caught; time.Sleep is not Now/Since.
	diags = lint(t, "internal/vm", `package p
import clock "time"
func f() { _ = clock.Now(); clock.Sleep(0) }`, checks.Wallclock)
	expect(t, diags, "time.Now")

	// The control-plane packages are in scope too (their reports embed
	// modeled breakdowns).
	diags = lint(t, "internal/fleet", src, checks.Wallclock)
	expect(t, diags, "time.Now", "time.Since")
	diags = lint(t, "internal/registry", src, checks.Wallclock)
	expect(t, diags, "time.Now", "time.Since")
}

func TestJournalfsync(t *testing.T) {
	// Seeded: temp-file write renamed into place with no Sync — neither
	// the bytes nor the new name were made durable.
	diags := lint(t, "internal/registry", `package p
import "os"
func writeThing(path string, data []byte) error {
	tmp, err := os.CreateTemp(".", "x-*")
	if err != nil { return err }
	if _, err := tmp.Write(data); err != nil { return err }
	if err := tmp.Close(); err != nil { return err }
	return os.Rename(tmp.Name(), path)
}`, checks.Journalfsync)
	expect(t, diags, "never Synced", "os.Rename names a file")

	// Seeded: the bytes are synced, but the rename's new name is not.
	diags = lint(t, "internal/registry", `package p
import "os"
func writeThing(path string, data []byte) error {
	tmp, err := os.CreateTemp(".", "x-*")
	if err != nil { return err }
	if _, err := tmp.Write(data); err != nil { return err }
	if err := tmp.Sync(); err != nil { return err }
	if err := tmp.Close(); err != nil { return err }
	return os.Rename(tmp.Name(), path)
}`, checks.Journalfsync)
	expect(t, diags, "os.Rename names a file")

	// Compliant: bytes synced before the close, the directory after the
	// rename.
	diags = lint(t, "internal/registry", `package p
import (
	"os"
	"path/filepath"
)
func writeThing(path string, data []byte) error {
	tmp, err := os.CreateTemp(".", "x-*")
	if err != nil { return err }
	if _, err := tmp.Write(data); err != nil { return err }
	if err := tmp.Sync(); err != nil { return err }
	if err := tmp.Close(); err != nil { return err }
	if err := os.Rename(tmp.Name(), path); err != nil { return err }
	return journal.SyncDir(filepath.Dir(path))
}`, checks.Journalfsync)
	expect(t, diags)

	// Seeded: a journal created with O_CREATE and no directory sync.
	diags = lint(t, "internal/journal", `package p
import "os"
func Open(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}`, checks.Journalfsync)
	expect(t, diags, "os.OpenFile names a file")

	// Compliant: the same open followed by the package's own SyncDir; an
	// open without O_CREATE names nothing.
	diags = lint(t, "internal/journal", `package p
import "os"
func Open(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil { return nil, err }
	return f, SyncDir(dirOf(path))
}
func Reopen(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
}`, checks.Journalfsync)
	expect(t, diags)

	// Seeded: a journal-handle append (the x.f convention) without a Sync
	// in the same function.
	diags = lint(t, "internal/fleet", `package p
func (j *journal) Append(data []byte) error {
	_, err := j.f.Write(data)
	return err
}`, checks.Journalfsync)
	expect(t, diags, "journal append")

	// Compliant: append then sync.
	diags = lint(t, "internal/fleet", `package p
func (j *journal) Append(data []byte) error {
	if _, err := j.f.Write(data); err != nil { return err }
	return j.f.Sync()
}`, checks.Journalfsync)
	expect(t, diags)

	// The shared journal package is in scope too.
	diags = lint(t, "internal/journal", `package p
func (j *Journal) Append(data []byte) error {
	_, err := j.f.Write(data)
	return err
}`, checks.Journalfsync)
	expect(t, diags, "journal append")

	// Hash and buffer writes never match either pattern.
	diags = lint(t, "internal/registry", `package p
func digest(h hasher, parts [][]byte) {
	for _, p := range parts { h.Write(p) }
}`, checks.Journalfsync)
	expect(t, diags)

	// Out-of-scope packages are untouched even for the seeded shape.
	diags = lint(t, "internal/criu", `package p
func (j *journal) Append(data []byte) error {
	_, err := j.f.Write(data)
	return err
}`, checks.Journalfsync)
	expect(t, diags)
}

func TestGoreap(t *testing.T) {
	// Seeded: fire-and-forget named call, no Add, no Done.
	diags := lint(t, "internal/criu", `package p
func f(s *srv) {
	go s.loop()
}`, checks.Goreap)
	expect(t, diags, "no join/reap path")

	// Compliant: Add before launch, and a Done-carrying literal.
	diags = lint(t, "internal/cluster", `package p
func f(s *srv) {
	s.wg.Add(1)
	go s.loop()
	go func() {
		defer s.wg.Done()
		s.serve()
	}()
}`, checks.Goreap)
	expect(t, diags)

	// Seeded: a semaphore-bounded literal. A held slot bounds the fan-out
	// but joins nothing, so Close cannot wait for the goroutine.
	diags = lint(t, "internal/criu", `package p
func f(c *client) {
	if !c.sem.TryAcquire() {
		return
	}
	go func() {
		defer c.sem.Release()
		c.fetch()
	}()
}`, checks.Goreap)
	expect(t, diags, "no join/reap path")

	// The shared accept loop is in scope: a server that forgot its
	// WaitGroup arm is seeded...
	diags = lint(t, "internal/netserve", `package p
func f(s *Server, conn net.Conn) {
	go s.serve(conn)
}`, checks.Goreap)
	expect(t, diags, "no join/reap path")

	// ...and the real shape (Add before launch) is compliant.
	diags = lint(t, "internal/netserve", `package p
func f(s *Server) {
	s.wg.Add(1)
	go s.acceptLoop()
}`, checks.Goreap)
	expect(t, diags)

	// Out of scope: other packages may fire and forget.
	diags = lint(t, "internal/kernel", `package p
func f(s *srv) { go s.loop() }`, checks.Goreap)
	expect(t, diags)
}

func TestEqpointlock(t *testing.T) {
	// Seeded: Pause under a held lock (deferred unlock holds to exit).
	diags := lint(t, "internal/monitor", `package p
func f(m *mon) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Pause(1)
}`, checks.Eqpointlock)
	expect(t, diags, "while a lock is held")

	// Compliant: lock released before the equivalence-point call.
	diags = lint(t, "internal/monitor", `package p
func f(m *mon) error {
	m.mu.Lock()
	n := m.passes
	m.mu.Unlock()
	_ = n
	return m.Pause(1)
}`, checks.Eqpointlock)
	expect(t, diags)

	// Out of scope package.
	diags = lint(t, "internal/cluster", `package p
func f(m *mon) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Pause(1)
}`, checks.Eqpointlock)
	expect(t, diags)
}
