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
