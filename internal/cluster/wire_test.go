package cluster

import (
	"bytes"
	"testing"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/obs"
)

// wireTestDir builds a directory whose marshaled blob is big enough to
// span several small segments and compressible enough that flate wins.
func wireTestDir() *criu.ImageDir {
	dir := criu.NewImageDir()
	dir.Put("core-1.img", bytes.Repeat([]byte{0xAB, 0xCD}, 512))
	dir.Put("mm.img", bytes.Repeat([]byte{0x00}, 64<<10))
	dir.Put("pages.img", bytes.Repeat([]byte("dapper"), 20<<10))
	dir.Put("inventory.img", []byte{1, 2, 3})
	return dir
}

// TestImageStreamRoundTrip pins the image stream: for both codecs and
// several segment sizes (forcing 1..many segments), the decoded directory
// is byte-identical to the source, and flate shrinks the wire volume.
func TestImageStreamRoundTrip(t *testing.T) {
	dir := wireTestDir()
	blob := dir.Marshal()
	for _, codec := range []criu.Codec{criu.CodecNone, criu.CodecFlate} {
		for _, segBytes := range []int{imageSegment, 1 << 10, 17, len(blob) + 1} {
			var buf bytes.Buffer
			reg := obs.New()
			wire, err := writeImageStream(&buf, blob, codec, segBytes, reg)
			if err != nil {
				t.Fatalf("codec %s seg %d: %v", codec, segBytes, err)
			}
			if wire != uint64(buf.Len()) {
				t.Errorf("codec %s seg %d: reported %d wire bytes, wrote %d", codec, segBytes, wire, buf.Len())
			}
			if codec == criu.CodecFlate && segBytes == imageSegment && wire >= uint64(len(blob)) {
				t.Errorf("flate stream did not shrink: raw %d, wire %d", len(blob), wire)
			}
			if reg.Counter("wire.batches").Value() == 0 {
				t.Errorf("codec %s seg %d: no segments recorded", codec, segBytes)
			}
			got, err := readImageDirFrom(&buf)
			if err != nil {
				t.Fatalf("codec %s seg %d: decode: %v", codec, segBytes, err)
			}
			if !bytes.Equal(got.Marshal(), blob) {
				t.Errorf("codec %s seg %d: decoded directory differs from source", codec, segBytes)
			}
		}
	}
}

// TestImageStreamEmptyDir: a directory with no files still round-trips
// (one empty segment), since pre-copy rounds can legitimately be empty.
func TestImageStreamEmptyDir(t *testing.T) {
	dir := criu.NewImageDir()
	blob := dir.Marshal()
	var buf bytes.Buffer
	if _, err := writeImageStream(&buf, blob, criu.CodecFlate, imageSegment, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readImageDirFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Names()) != 0 {
		t.Errorf("empty directory decoded to %v", got.Names())
	}
}

// TestShipperDropsFramesAfterMarshal (satellite: stale-frame leak): a
// shipper reused across pre-copy rounds must not retain round N's
// pre-built frames into round N+1 — they pin every round's rewritten
// images in memory for the whole migration.
func TestShipperDropsFramesAfterMarshal(t *testing.T) {
	dir := criu.NewImageDir()
	dir.Put("core-1.img", []byte{1, 2, 3})
	dir.Put("pages.img", bytes.Repeat([]byte{7}, 4096))

	sh := newShipper()
	core, _ := dir.Get("core-1.img")
	sh.OnFile("core-1.img", core)
	if got := sh.marshal(dir, 2); !bytes.Equal(got, dir.Marshal()) {
		t.Fatal("round 1 marshal output differs from dir.Marshal")
	}
	sh.mu.Lock()
	left := len(sh.frames)
	sh.mu.Unlock()
	if left != 0 {
		t.Errorf("%d pre-built frames retained after marshal; each round's images stay pinned", left)
	}
	// A later round with fresh hooks still works and still cleans up.
	dir.Put("pages.img", bytes.Repeat([]byte{9}, 4096))
	pages, _ := dir.Get("pages.img")
	sh.OnFile("pages.img", pages)
	if got := sh.marshal(dir, 1); !bytes.Equal(got, dir.Marshal()) {
		t.Fatal("round 2 marshal output differs from dir.Marshal")
	}
	sh.mu.Lock()
	left = len(sh.frames)
	sh.mu.Unlock()
	if left != 0 {
		t.Errorf("%d pre-built frames retained after round 2", left)
	}
}
