// Package registry is the container-registry analogue for process
// images: a persistent content-addressed chunk store that migrations
// push checkpoints to and restores pull from.
//
// The model (docs/registry.md):
//
//   - a chunk is one 4K page payload, stored once under its SHA-256;
//   - a manifest describes one checkpoint: the small metadata images
//     verbatim plus the ordered chunk list that reassembles pages.img,
//     and an optional parent link for incremental/delta chains;
//   - manifests carry owner-tagged references; a manifest is live while
//     it has owners or a live descendant, and mark-and-sweep GC deletes
//     chunks only reachable from dead manifests;
//   - every metadata mutation (manifest, ref, unref, sweep) is one
//     fsync'd line in a JSONL journal with the fleet journal's
//     torn-tail discipline, so a crashed store replays to exactly the
//     refcounts it had durably reached.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/journal"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// ChunkSize is the content-addressing granularity: exactly one page, so
// chunk identity coincides with the page identity dedup and the page
// protocol already work in.
const ChunkSize = mem.PageSize

// Manifest describes one stored checkpoint.
type Manifest struct {
	// ID is the hex SHA-256 of the manifest's canonical serialization,
	// so pushing a byte-identical image yields the same manifest.
	ID string `json:"id"`
	// Parent links an incremental dump to the manifest it was dumped
	// against (in_parent/delta pages resolve into it). A live manifest
	// pins its whole parent chain.
	Parent string `json:"parent,omitempty"`
	// Meta holds every image file except pages.img, verbatim.
	Meta map[string][]byte `json:"meta"`
	// PageChunks is the ordered chunk list whose concatenation is
	// pages.img.
	PageChunks []string `json:"page_chunks"`

	// owners is the live reference set, rebuilt from the journal.
	owners map[string]bool
}

// Refs reports the number of live owner references.
func (m *Manifest) Refs() int { return len(m.owners) }

// PushStats reports what one push stored and elided.
type PushStats struct {
	ChunksHit   uint64 // chunks the store already held
	ChunksNew   uint64 // chunks written by this push
	BytesStored uint64 // ChunksNew * ChunkSize (+ partial tail)
	BytesElided uint64 // ChunksHit * ChunkSize: payload not re-stored
}

// PushOpts configures one push.
type PushOpts struct {
	// Parent is the manifest ID this image is incremental against.
	Parent string
	// Owner, when non-empty, takes a reference on the pushed manifest in
	// the same operation, so the manifest is born pinned.
	Owner string
}

// Opts configures Open.
type Opts struct {
	Obs *obs.Registry
}

// Store is a persistent content-addressed chunk store rooted at a
// directory. Safe for concurrent use.
type Store struct {
	dir string

	mu        sync.Mutex
	j         *journal.Journal[event]
	chunks    map[string]bool // hash -> present on disk
	manifests map[string]*Manifest

	reg *obs.Registry
}

// Open opens (creating if needed) the store rooted at dir and replays
// its journal.
func Open(dir string, opts Opts) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "chunks"), 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	s := &Store{
		dir:       dir,
		chunks:    make(map[string]bool),
		manifests: make(map[string]*Manifest),
		reg:       opts.Obs,
	}
	// The chunk index comes from the directory itself, not the journal:
	// chunk files land before the manifest naming them is journaled, so
	// a crash can leave orphans (GC's job), never dangling references.
	entries, err := os.ReadDir(filepath.Join(dir, "chunks"))
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			s.chunks[e.Name()] = true
		}
	}
	j, events, err := journal.Open(filepath.Join(dir, "manifests.jsonl"), func(ev *event) *int64 { return &ev.Seq })
	if err != nil {
		return nil, err
	}
	s.j = j
	for _, ev := range events {
		s.apply(ev)
	}
	return s, nil
}

// apply folds one replayed journal event into the in-memory state.
func (s *Store) apply(ev event) {
	switch ev.Type {
	case "manifest":
		if ev.Manifest == nil || ev.Manifest.ID == "" {
			return
		}
		if _, dup := s.manifests[ev.Manifest.ID]; dup {
			return // idempotent re-push: first event wins
		}
		m := ev.Manifest
		m.owners = make(map[string]bool)
		s.manifests[m.ID] = m
	case "ref":
		if m := s.manifests[ev.ID]; m != nil && ev.Owner != "" {
			m.owners[ev.Owner] = true
		}
	case "unref":
		if m := s.manifests[ev.ID]; m != nil {
			delete(m.owners, ev.Owner)
		}
	case "sweep":
		for _, id := range ev.Manifests {
			delete(s.manifests, id)
		}
		// Swept chunk files are already gone from disk; the directory
		// scan at Open never saw them. Nothing to fold.
	}
}

// chunkPath returns the on-disk location of a chunk.
func (s *Store) chunkPath(hash string) string {
	return filepath.Join(s.dir, "chunks", hash)
}

// hashChunk is the content address: hex SHA-256 of the payload.
func hashChunk(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// manifestID derives the content address of a manifest from its
// canonical serialization (parent, sorted meta, ordered chunk list).
func manifestID(parent string, meta map[string][]byte, chunks []string) string {
	h := sha256.New()
	h.Write([]byte("parent\x00" + parent + "\x00"))
	names := make([]string, 0, len(meta))
	for name := range meta {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "meta\x00%s\x00%d\x00", name, len(meta[name]))
		h.Write(meta[name])
	}
	for _, c := range chunks {
		h.Write([]byte("chunk\x00" + c + "\x00"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Push stores an image directory: new page chunks are written, already
// present ones elided, and the manifest journaled durably. Pushing the
// same image twice is idempotent and returns the same manifest ID.
func (s *Store) Push(dir *image.ImageDir, opts PushOpts) (*Manifest, PushStats, error) {
	var stats PushStats
	meta := make(map[string][]byte)
	var pages []byte
	for _, name := range dir.Names() {
		raw, _ := dir.Get(name)
		if name == "pages.img" {
			pages = raw
			continue
		}
		cp := make([]byte, len(raw))
		copy(cp, raw)
		meta[name] = cp
	}

	var hashes []string
	for off := 0; off < len(pages); off += ChunkSize {
		end := off + ChunkSize
		if end > len(pages) {
			end = len(pages)
		}
		hashes = append(hashes, hashChunk(pages[off:end]))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if opts.Parent != "" && s.manifests[opts.Parent] == nil {
		return nil, stats, fmt.Errorf("registry: push parent %.12s: unknown manifest", opts.Parent)
	}
	for i, h := range hashes {
		off := i * ChunkSize
		end := off + ChunkSize
		if end > len(pages) {
			end = len(pages)
		}
		if s.chunks[h] {
			stats.ChunksHit++
			stats.BytesElided += uint64(end - off)
			continue
		}
		if err := writeChunk(s.chunkPath(h), pages[off:end]); err != nil {
			return nil, stats, err
		}
		s.chunks[h] = true
		stats.ChunksNew++
		stats.BytesStored += uint64(end - off)
	}
	s.reg.Counter("registry.chunks_hit").Add(stats.ChunksHit)
	s.reg.Counter("registry.chunks_new").Add(stats.ChunksNew)
	s.reg.Counter("registry.bytes_stored").Add(stats.BytesStored)
	s.reg.Counter("registry.bytes_elided").Add(stats.BytesElided)

	id := manifestID(opts.Parent, meta, hashes)
	m := s.manifests[id]
	if m == nil {
		m = &Manifest{
			ID: id, Parent: opts.Parent, Meta: meta, PageChunks: hashes,
			owners: make(map[string]bool),
		}
		// Chunks are on disk before this line is durable, so a replayed
		// manifest never names a chunk the crash lost (orphan chunks are
		// GC's problem, dangling references would be corruption).
		if err := s.j.Append(event{Type: "manifest", Manifest: m}); err != nil {
			return nil, stats, err
		}
		s.manifests[id] = m
		s.reg.Counter("registry.manifests").Inc()
	}
	if opts.Owner != "" && !m.owners[opts.Owner] {
		if err := s.j.Append(event{Type: "ref", ID: id, Owner: opts.Owner}); err != nil {
			return nil, stats, err
		}
		m.owners[opts.Owner] = true
	}
	return m, stats, nil
}

// writeChunk lands a chunk file atomically AND durably: temp file in the
// same directory, fsync, then rename. The fsync is load-bearing — the
// journal acknowledges the manifest referencing this chunk immediately
// after, and rename only makes the *name* durable; without syncing the
// bytes a crash could leave a journaled manifest pointing at an empty or
// torn chunk. (Integrity is still re-verified by hash on every pull, so
// the failure would be detected — but the checkpoint would be lost.)
func writeChunk(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".chunk-*")
	if err != nil {
		return fmt.Errorf("registry: write chunk: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // surfacing the write error; close is cleanup
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("registry: write chunk: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("registry: write chunk: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("registry: write chunk: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("registry: write chunk: %w", err)
	}
	return nil
}

// Manifest returns a stored manifest by ID, or nil.
func (s *Store) Manifest(id string) *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifests[id]
}

// Manifests returns the IDs of every stored manifest, sorted.
func (s *Store) Manifests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.manifests))
	for id := range s.manifests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Pull materializes a manifest back into an image directory, verifying
// every chunk against its content address.
func (s *Store) Pull(id string) (*image.ImageDir, error) {
	s.mu.Lock()
	m := s.manifests[id]
	s.mu.Unlock()
	if m == nil {
		return nil, fmt.Errorf("registry: pull %.12s: unknown manifest", id)
	}
	dir := image.NewImageDir()
	for name, raw := range m.Meta {
		cp := make([]byte, len(raw))
		copy(cp, raw)
		dir.Put(name, cp)
	}
	var pages []byte
	for i, h := range m.PageChunks {
		data, err := os.ReadFile(s.chunkPath(h))
		if err != nil {
			return nil, fmt.Errorf("registry: pull %.12s chunk %d: %w", id, i, err)
		}
		if got := hashChunk(data); got != h {
			return nil, fmt.Errorf("registry: pull %.12s chunk %d: content hash %.12s != address %.12s", id, i, got, h)
		}
		pages = append(pages, data...)
	}
	dir.Put("pages.img", pages)
	s.reg.Counter("registry.pull_chunks").Add(uint64(len(m.PageChunks)))
	return dir, nil
}

// Chain returns the manifest chain ending at id, oldest first — the
// order FlattenChain wants the materialized directories in.
func (s *Store) Chain(id string) ([]*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rev []*Manifest
	seen := make(map[string]bool)
	for cur := id; cur != ""; {
		if seen[cur] {
			return nil, fmt.Errorf("registry: chain %.12s: parent cycle at %.12s", id, cur)
		}
		seen[cur] = true
		m := s.manifests[cur]
		if m == nil {
			return nil, fmt.Errorf("registry: chain %.12s: unknown manifest %.12s", id, cur)
		}
		rev = append(rev, m)
		cur = m.Parent
	}
	chain := make([]*Manifest, len(rev))
	for i, m := range rev {
		chain[len(rev)-1-i] = m
	}
	return chain, nil
}

// PullChain materializes the whole chain ending at id, oldest first.
func (s *Store) PullChain(id string) ([]*image.ImageDir, error) {
	chain, err := s.Chain(id)
	if err != nil {
		return nil, err
	}
	dirs := make([]*image.ImageDir, len(chain))
	for i, m := range chain {
		if dirs[i], err = s.Pull(m.ID); err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// Ref takes an owner-tagged reference on a manifest. Idempotent per
// owner, journaled durably before it takes effect.
func (s *Store) Ref(id, owner string) error {
	if owner == "" {
		return fmt.Errorf("registry: ref %.12s: empty owner", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.manifests[id]
	if m == nil {
		return fmt.Errorf("registry: ref %.12s: unknown manifest", id)
	}
	if m.owners[owner] {
		return nil
	}
	if err := s.j.Append(event{Type: "ref", ID: id, Owner: owner}); err != nil {
		return err
	}
	m.owners[owner] = true
	return nil
}

// Unref drops an owner's reference. Dropping a reference the owner does
// not hold is a no-op, which is what makes post-crash reconciliation
// idempotent: callers re-release on replay without tracking whether the
// release landed before the crash.
func (s *Store) Unref(id, owner string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.manifests[id]
	if m == nil || !m.owners[owner] {
		return nil
	}
	if err := s.j.Append(event{Type: "unref", ID: id, Owner: owner}); err != nil {
		return err
	}
	delete(m.owners, owner)
	return nil
}

// Stats is a point-in-time inventory.
type Stats struct {
	Chunks    int
	Manifests int
}

// Stat reports the store's current inventory.
func (s *Store) Stat() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Chunks: len(s.chunks), Manifests: len(s.manifests)}
}

// Close closes the store's journal. Chunk files need no teardown.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Close()
}
