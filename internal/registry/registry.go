// Package registry is the container-registry analogue for process
// images: a persistent content-addressed chunk store that migrations
// push checkpoints to and restores pull from.
//
// The model (docs/registry.md):
//
//   - a chunk is one 4K page payload, stored once under its SHA-256;
//   - a manifest describes one checkpoint: the small metadata images
//     verbatim plus the ordered chunk list that reassembles pages.img;
//   - every pushed manifest is one fsync'd line in a JSONL journal with
//     the fleet journal's torn-tail discipline, so a crashed store
//     replays to exactly the manifests it had durably acknowledged.
//
// The store keeps what it is pushed: nothing is ever deleted.
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
	// Meta holds every image file except pages.img, verbatim.
	Meta map[string][]byte `json:"meta"`
	// PageChunks is the ordered chunk list whose concatenation is
	// pages.img.
	PageChunks []string `json:"page_chunks"`
}

// PushStats reports what one push stored and elided.
type PushStats struct {
	ChunksHit   uint64 // chunks the store already held
	ChunksNew   uint64 // chunks written by this push
	BytesStored uint64 // ChunksNew * ChunkSize (+ partial tail)
	BytesElided uint64 // ChunksHit * ChunkSize: payload not re-stored
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
	// a crash can leave orphan chunks (named by no manifest, harmless: a
	// later push of the same page reuses them), never dangling references.
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
	if ev.Type != "manifest" || ev.Manifest == nil || ev.Manifest.ID == "" {
		return
	}
	if _, dup := s.manifests[ev.Manifest.ID]; dup {
		return // idempotent re-push: first event wins
	}
	s.manifests[ev.Manifest.ID] = ev.Manifest
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
// canonical serialization (sorted meta, ordered chunk list).
func manifestID(meta map[string][]byte, chunks []string) string {
	h := sha256.New()
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
func (s *Store) Push(dir *image.ImageDir) (*Manifest, PushStats, error) {
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

	id := manifestID(meta, hashes)
	m := s.manifests[id]
	if m == nil {
		m = &Manifest{ID: id, Meta: meta, PageChunks: hashes}
		// Chunks and their names are durable before this line is, so a
		// replayed manifest never names a chunk the crash lost (an orphan
		// chunk is harmless, a dangling reference would be corruption).
		if err := s.j.Append(event{Type: "manifest", Manifest: m}); err != nil {
			return nil, stats, err
		}
		s.manifests[id] = m
		s.reg.Counter("registry.manifests").Inc()
	}
	return m, stats, nil
}

// writeChunk lands a chunk file atomically AND durably: temp file in the
// same directory, fsync, rename, then fsync the directory. Both syncs are
// load-bearing — the journal acknowledges the manifest referencing this
// chunk immediately after. Without the file sync a crash could leave a
// journaled manifest pointing at an empty or torn chunk; without the
// directory sync the rename itself may not survive, leaving the manifest
// pointing at no chunk at all. (Integrity is still re-verified by hash on
// every pull, so either failure would be detected — but the checkpoint
// would be lost.)
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
	return journal.SyncDir(filepath.Dir(path))
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
