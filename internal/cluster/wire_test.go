package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/obs"
)

// writeImageStream writes a marshaled blob as a one-part image: the
// stream a TCP send of the directory it came from puts on the wire.
func writeImageStream(w io.Writer, blob []byte, codec criu.Codec, segBytes int, reg *obs.Registry) (uint64, error) {
	_, wire, err := writeImageParts(w, [][]byte{blob}, codec, segBytes, reg)
	return wire, err
}

// wireTestDir builds a directory whose marshaled blob is big enough to
// span several small segments and compressible enough that flate wins.
func wireTestDir() *criu.ImageDir {
	dir := image.NewImageDir()
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
	dir := image.NewImageDir()
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

// integerHeapDir builds a directory around a pages.img of n 64-bit words
// shaped like an integer heap — a counter, a strided pointer, a small
// pseudo-random length, in turn — which CodecFlate ships as word planes
// once a segment of it is over the form trial's floor.
func integerHeapDir(n int) *criu.ImageDir {
	pages := make([]byte, 8*n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := [3]uint64{uint64(i) / 3, 0x10000000 + uint64(i)*32, x >> 58}[i%3]
		binary.LittleEndian.PutUint64(pages[8*i:], v)
	}
	dir := image.NewImageDir()
	dir.Put("pages.img", pages)
	return dir
}

// TestImageStreamCodecBytes draws the line between the two questions a
// codec byte answers. The stream header names what the sender was asked
// for: none and flate, nothing else — the word-plane form is refused
// there by name, like any codec nobody can request. A segment header
// names what encoded its payload: there the word-plane form is what a
// flate stream of an integer heap carries, and it decodes; the counters
// say how many segments went out in each form.
func TestImageStreamCodecBytes(t *testing.T) {
	const wordPlanes = criu.Codec(2)
	dir := integerHeapDir(5 << 16)
	blob := dir.Marshal() // 2.5 MiB: two segments below
	reg := obs.New()
	var buf bytes.Buffer
	if _, err := writeImageStream(&buf, blob, criu.CodecFlate, 2<<20, reg); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	if got := criu.Codec(stream[imageHdrLen+8]); got != wordPlanes {
		t.Fatalf("first segment of an integer heap went out as %s, want %s", got, wordPlanes)
	}
	// Two segments: 2 MiB as word planes, the half MiB left — under the
	// trial's floor — as plain DEFLATE.
	for name, want := range map[string]uint64{"wire.form.words": 1, "wire.form.flate": 1, "wire.form.none": 0, "wire.batches": 2} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	with := func(at int, b criu.Codec) []byte {
		out := bytes.Clone(stream)
		out[at] = byte(b)
		return out
	}
	for _, tc := range []struct {
		name   string
		stream []byte
		want   string // substring of the refusal; empty: accepted
	}{
		{"header flate", stream, ""},
		{"header none", with(4, criu.CodecNone), ""},
		{"header word planes", with(4, wordPlanes), "bad codec flate-words"},
		{"header unknown", with(4, 0x7F), "bad codec codec(127)"},
		{"segment word planes", stream, ""},
		{"segment unknown", with(imageHdrLen+8, 0x7F), "bad segment codec codec(127)"},
	} {
		got, err := readImageDirFrom(bytes.NewReader(tc.stream))
		switch {
		case tc.want != "":
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
			}
		case err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case !bytes.Equal(got.Marshal(), blob):
			t.Errorf("%s: decoded directory differs from source", tc.name)
		}
	}
	if _, _, _, err := transfer(dir, wordPlanes, nil); err == nil {
		t.Error("the word-plane form was accepted as a requested codec")
	}
}
