package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// testDir fabricates an image directory with n pages, each filled from
// fills (cycled), plus a small metadata file.
func testDir(meta string, fills ...byte) *image.ImageDir {
	dir := image.NewImageDir()
	dir.Put("mm.img", []byte(meta))
	var pages []byte
	for _, f := range fills {
		pg := make([]byte, mem.PageSize)
		for i := range pg {
			pg[i] = f
		}
		pages = append(pages, pg...)
	}
	dir.Put("pages.img", pages)
	return dir
}

func sameDir(t *testing.T, a, b *image.ImageDir) {
	t.Helper()
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		t.Fatalf("file sets differ: %v vs %v", an, bn)
	}
	for _, name := range an {
		av, _ := a.Get(name)
		bv, _ := b.Get(name)
		if !bytes.Equal(av, bv) {
			t.Fatalf("%s differs after pull", name)
		}
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }() // test teardown; errors surfaced by assertions

	dir := testDir("meta-1", 0x11, 0x22, 0x11, 0x33)
	m, stats, err := s.Push(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 4 pages, one duplicate pair -> 3 unique chunks, 1 hit.
	if stats.ChunksNew != 3 || stats.ChunksHit != 1 {
		t.Fatalf("stats = %+v, want 3 new / 1 hit", stats)
	}
	back, err := s.Pull(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameDir(t, dir, back)

	// Idempotent re-push: same ID, every chunk a hit.
	m2, stats2, err := s.Push(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID != m.ID {
		t.Fatalf("re-push changed manifest ID: %.12s vs %.12s", m2.ID, m.ID)
	}
	if stats2.ChunksNew != 0 || stats2.ChunksHit != 4 {
		t.Fatalf("re-push stats = %+v, want 0 new / 4 hit", stats2)
	}
}

func TestCrossDumpDedup(t *testing.T) {
	reg := obs.New()
	s, err := Open(t.TempDir(), Opts{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }() // test teardown; errors surfaced by assertions

	if _, _, err := s.Push(testDir("dump-1", 0x11, 0x22, 0x33)); err != nil {
		t.Fatal(err)
	}
	// Second dump shares two of three pages.
	_, stats, err := s.Push(testDir("dump-2", 0x11, 0x22, 0x44))
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksHit != 2 || stats.ChunksNew != 1 {
		t.Fatalf("cross-dump stats = %+v, want 2 hit / 1 new", stats)
	}
	if got := reg.Counter("registry.chunks_hit").Value(); got < 2 {
		t.Fatalf("registry.chunks_hit = %d, want >= 2", got)
	}
}

func TestJournalReplayAcrossReopen(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := s.Push(testDir("meta", 0x11, 0x22))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := s.Push(testDir("meta-2", 0x22, 0x33))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn tail must be dropped.
	jpath := filepath.Join(root, "manifests.jsonl")
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"manifest","manifest":{"id":"` + m.ID); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(root, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }() // test teardown; errors surfaced by assertions
	want := []string{m.ID, m2.ID}
	sort.Strings(want)
	if got := s2.Manifests(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("replayed manifests %v, want %v: the torn tail must name nothing", got, want)
	}
	back, err := s2.Pull(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameDir(t, testDir("meta", 0x11, 0x22), back)
}

// TestJournalAppendAfterTornTail (ROADMAP 4c): a store reopened over a
// torn tail keeps journaling, and the first manifest it acknowledges
// must still be there on the open after that.
func TestJournalAppendAfterTornTail(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := s.Push(testDir("meta", 0x11, 0x22))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(root, "manifests.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"manifest","manifest":{"id":"` + m.ID); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(root, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := s2.Push(testDir("meta-2", 0x33))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(root, Opts{})
	if err != nil {
		t.Fatalf("open after append: %v", err)
	}
	defer func() { _ = s3.Close() }() // test teardown; errors surfaced by assertions
	if s3.Manifest(m.ID) == nil || s3.Manifest(m2.ID) == nil {
		t.Fatalf("replayed manifests %v, want both %.12s and the appended %.12s", s3.Manifests(), m.ID, m2.ID)
	}
	if _, err := s3.Pull(m2.ID); err != nil {
		t.Fatal(err)
	}
}

func TestJournalTornMidFileRejected(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Push(testDir("meta", 0x11)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(root, "manifests.jsonl")
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, append([]byte("{torn\n"), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(root, Opts{}); err == nil || !strings.Contains(err.Error(), "mid-file") {
		t.Fatalf("mid-file tear not rejected: %v", err)
	}
}

func TestPullDetectsCorruptChunk(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }() // test teardown; errors surfaced by assertions
	m, _, err := s.Push(testDir("meta", 0x11))
	if err != nil {
		t.Fatal(err)
	}
	path := s.chunkPath(m.PageChunks[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pull(m.ID); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("corrupt chunk not detected: %v", err)
	}
}
