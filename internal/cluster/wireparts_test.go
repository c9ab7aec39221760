package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// workloadDump dumps a class-A workload paused mid-run: rediska once it
// has served keys SETs and blocked on an empty queue, a batch workload
// half-way through its reference run.
func workloadDump(t *testing.T, name string, keys uint64) *criu.ImageDir {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassA)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(XeonSpec)
	n.Install(name, pair)
	p, err := n.Start(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == workloads.Server {
		p.PushInput(workloads.RediskaLoad(keys))
		for st, err := n.K.Step(p); st.Blocked != 1 || p.PendingInput() != 0; st, err = n.K.Step(p) {
			if err != nil {
				t.Fatal(err)
			}
		}
	} else {
		ref, err := n.Start(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.K.Run(ref); err != nil {
			t.Fatal(err)
		}
		if alive, err := n.K.RunBudget(p, ref.VCycles/2); err != nil || !alive {
			t.Fatalf("run to the half-way point: alive %v, err %v", alive, err)
		}
	}
	if err := monitor.New(n.K, p, pair.Meta).Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n.K.Reap(p)
	return dir
}

// randomPagesDir is a directory whose pages.img, in list form, is 300
// pages of noise: over the form trial's floor, and nothing flate can
// shrink.
func randomPagesDir() *criu.ImageDir {
	rng := rand.New(rand.NewSource(7))
	pages := make([][]byte, 300)
	for i := range pages {
		pages[i] = make([]byte, mem.PageSize)
		rng.Read(pages[i])
	}
	dir := image.NewImageDir()
	dir.Put("core-1.img", []byte{1, 2, 3, 4, 5})
	dir.Put("mm.img", bytes.Repeat([]byte{9}, 77))
	dir.PutPages(pages)
	return dir
}

// TestImageStreamPartsMatchMarshal: a stream written from a directory's
// parts, where they sit, is byte for byte the stream of its marshaled
// blob — for both codecs, and for segment sizes that cut inside a page
// and inside a word — on the three payloads CodecFlate tells apart: an
// integer heap (word planes), a float workload (plain DEFLATE) and noise
// (raw). An in-process transfer of the directory cuts the same segments:
// it reports the same figures and delivers a directory that marshals to
// the same blob.
func TestImageStreamPartsMatchMarshal(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  *criu.ImageDir
		form string // the form a flate stream of it carries
	}{
		{"rediska", workloadDump(t, "rediska", 4000), "wire.form.words"},
		{"streamcluster", workloadDump(t, "streamcluster", 0), "wire.form.flate"},
		{"random pages", randomPagesDir(), "wire.form.none"},
	} {
		parts, blob := tc.dir.Parts(), tc.dir.Marshal()
		if len(parts) < 3 {
			t.Fatalf("%s: %d parts; the test needs the image spread over several", tc.name, len(parts))
		}
		for _, codec := range []criu.Codec{criu.CodecNone, criu.CodecFlate} {
			for _, segBytes := range []int{imageSegment, 4096, 4099, 65541} {
				t.Run(fmt.Sprintf("%s/%s/%d", tc.name, codec, segBytes), func(t *testing.T) {
					var fromParts, fromBlob bytes.Buffer
					reg := obs.New()
					raw, wp, err := writeImageParts(&fromParts, parts, codec, segBytes, reg)
					if err != nil {
						t.Fatal(err)
					}
					wb, err := writeImageStream(&fromBlob, blob, codec, segBytes, nil)
					if err != nil {
						t.Fatal(err)
					}
					if raw != uint64(len(blob)) {
						t.Errorf("the parts hold %d bytes, the blob %d", raw, len(blob))
					}
					if wp != wb || !bytes.Equal(fromParts.Bytes(), fromBlob.Bytes()) {
						t.Fatalf("stream from parts: %d bytes (reported %d); from the blob: %d (reported %d)", fromParts.Len(), wp, fromBlob.Len(), wb)
					}
					if codec == criu.CodecFlate && segBytes == imageSegment && reg.Counter(tc.form).Value() == 0 {
						t.Errorf("no segment went out as %s", tc.form)
					}
					if segBytes == imageSegment {
						got, tr, tw, err := transfer(tc.dir, codec, nil)
						if err != nil {
							t.Fatal(err)
						}
						if same := bytes.Equal(got.Marshal(), blob); tr != raw || tw != wb || !same {
							t.Errorf("in process: %d image and %d wire bytes (the stream: %d and %d), same directory %v", tr, tw, raw, wb, same)
						}
					}
				})
			}
		}
	}
}

// TestReadBoundedAllocation pins readBounded's two bounds: a segment
// that arrives whole costs under twice its length, allocations included,
// and one whose header claims more than arrives costs at most twice what
// arrived plus recvChunk.
func TestReadBoundedAllocation(t *testing.T) {
	const slack = 16 << 10
	allocated := func(src []byte, n uint64) (uint64, error) {
		r := bytes.NewReader(src)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readBounded(r, n)
		runtime.ReadMemStats(&after)
		if err == nil && !bytes.Equal(got, src) {
			err = errors.New("read different bytes")
		}
		return after.TotalAlloc - before.TotalAlloc, err
	}
	for _, n := range []int{4096, recvChunk, recvChunk + 1, 2*recvChunk + 1, 3_482_155, 4*recvChunk + 1, maxImageSegment} {
		src := make([]byte, n)
		src[n-1] = 1
		a, err := allocated(src, uint64(n))
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		t.Logf("%d bytes: allocated %.2fx", n, float64(a)/float64(n))
		if a > uint64(2*n+slack) {
			t.Errorf("reading %d bytes allocated %d, %.2fx: over 2x", n, a, float64(a)/float64(n))
		}
	}
	for _, sent := range []int{0, 100 << 10, recvChunk, recvChunk + 1, 3 * recvChunk} {
		a, err := allocated(make([]byte, sent), maxImageSegment)
		if err == nil {
			t.Fatalf("a %d-byte header with %d bytes behind it was accepted", maxImageSegment, sent)
		}
		if a > uint64(2*sent+recvChunk+slack) {
			t.Errorf("a header claiming %d bytes with %d behind it cost %d: over twice what arrived plus %d", maxImageSegment, sent, a, recvChunk)
		}
	}
}
