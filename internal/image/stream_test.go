package image_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"github.com/dapper-sim/dapper/internal/image"
)

// testDir builds a directory whose files exercise the framing corners:
// empty data, single byte, page-sized, multi-chunk, and names that sort
// around pages.img.
func testDir() *image.ImageDir {
	d := image.NewImageDir()
	d.Put("core-0.img", bytes.Repeat([]byte{0xab}, 300))
	d.Put("files.img", []byte{1})
	d.Put("inventory.img", nil)
	d.Put("mm.img", bytes.Repeat([]byte{7}, 4096))
	d.Put("pagemap.img", []byte{9, 9, 9})
	d.Put("pages.img", bytes.Repeat([]byte{0xcd}, 3*4096+17))
	return d
}

// splitInto feeds blob to a fresh splitter of a stream of unknown length
// in the given chunk sizes (the final chunk takes the remainder) and
// returns the rebuilt directory.
func splitInto(t *testing.T, blob []byte, sizes func(remaining int) int) *image.ImageDir {
	t.Helper()
	sp := image.NewStreamSplitter(0)
	for off := 0; off < len(blob); {
		n := sizes(len(blob) - off)
		if n <= 0 || n > len(blob)-off {
			n = len(blob) - off
		}
		if _, err := sp.Write(blob[off : off+n]); err != nil {
			t.Fatalf("Write at offset %d: %v", off, err)
		}
		off += n
	}
	dir, err := sp.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// TestStreamSplitterRoundTrip: splitting Marshal output must rebuild the
// identical directory regardless of how the byte stream is fragmented —
// whole-blob, byte-at-a-time, and random chunk sizes all land on the
// same files.
func TestStreamSplitterRoundTrip(t *testing.T) {
	want := testDir().Marshal()
	rng := rand.New(rand.NewSource(7))
	cases := map[string]func(remaining int) int{
		"whole":  func(r int) int { return r },
		"byte":   func(r int) int { return 1 },
		"random": func(r int) int { return 1 + rng.Intn(5000) },
	}
	for name, sizes := range cases {
		got := splitInto(t, want, sizes)
		if !bytes.Equal(got.Marshal(), want) {
			t.Errorf("%s: rebuilt directory differs from source", name)
		}
	}
}

// TestStreamSplitterOrder: the splitter must see files in marshaled
// (sorted) order with metadata strictly before pages.img — the property
// the streaming restore pipeline is built on.
func TestStreamSplitterOrder(t *testing.T) {
	d := testDir()
	sp := image.NewStreamSplitter(0)
	if _, err := sp.Write(d.Marshal()); err != nil {
		t.Fatal(err)
	}
	dir, err := sp.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := dir.Names()
	if names[len(names)-1] != "pages.img" {
		t.Fatalf("pages.img is not last in %v", names)
	}
}

// TestStreamSplitterEmptyStream: zero input is a complete (empty) image.
func TestStreamSplitterEmptyStream(t *testing.T) {
	dir, err := image.NewStreamSplitter(0).Close()
	if err != nil {
		t.Fatalf("Close on empty stream: %v", err)
	}
	if n := len(dir.Names()); n != 0 {
		t.Fatalf("empty stream produced %d files", n)
	}
}

// TestStreamSplitterTruncated: ending the stream mid-header or
// mid-payload must fail Close, never silently drop the partial file.
func TestStreamSplitterTruncated(t *testing.T) {
	blob := testDir().Marshal()
	for _, cut := range []int{1, 5, len(blob) / 2, len(blob) - 1} {
		sp := image.NewStreamSplitter(0)
		if _, err := sp.Write(blob[:cut]); err != nil {
			continue // already detected — fine
		}
		if _, err := sp.Close(); err == nil {
			t.Errorf("cut=%d: Close accepted a truncated stream", cut)
		}
	}
}

// TestStreamSplitterMalformed: garbage framing must error instead of
// being interpreted as a file.
func TestStreamSplitterMalformed(t *testing.T) {
	sp := image.NewStreamSplitter(0)
	_, werr := sp.Write(bytes.Repeat([]byte{0xff}, 64))
	_, cerr := sp.Close()
	if werr == nil && cerr == nil {
		t.Fatal("garbage stream accepted")
	}
}

// TestStreamSplitterPoisoned: after an error every later Write fails.
func TestStreamSplitterPoisoned(t *testing.T) {
	sp := image.NewStreamSplitter(0)
	if _, err := sp.Write(bytes.Repeat([]byte{0xff}, 64)); err == nil {
		t.Skip("first write did not error on this framing; poisoning not reachable")
	}
	if _, err := sp.Write([]byte{1}); err == nil {
		t.Fatal("poisoned splitter accepted another write")
	}
}

// TestStreamSplitterSinkError: a refusal in the middle of a stream — a
// bad frame header just before pages.img, after every other file has
// landed — surfaces from Write, and Close returns no directory.
func TestStreamSplitterSinkError(t *testing.T) {
	d := testDir()
	blob := d.Marshal()
	pages, _ := d.Get("pages.img")
	at := len(blob) - len(image.FrameFile("pages.img", pages))
	blob[at] ^= 0xff // the frame's tag
	sp := image.NewStreamSplitter(len(blob))
	if _, err := sp.Write(blob); err == nil {
		t.Fatal("a bad frame header was accepted")
	}
	if dir, err := sp.Close(); err == nil || dir != nil {
		t.Fatalf("Close after a refusal: dir %v, err %v — want no directory and the error", dir, err)
	}
}

// paddedUvarint is v as a non-canonical ten-byte varint — the longest
// encoding imgproto.Uvarint accepts.
func paddedUvarint(v uint64) []byte {
	b := make([]byte, 10)
	for i := range b[:9] {
		b[i] = byte(v>>(7*i))&0x7f | 0x80
	}
	b[9] = byte(v >> 63)
	return b
}

// TestStreamSplitterLongestHeader: the longest header the frame parser
// accepts — six padded varints around a name at the cap — is parsed, not
// waited on forever, however the bytes are fragmented; one byte more of
// name is refused.
func TestStreamSplitterLongestHeader(t *testing.T) {
	frame := func(nameLen int) []byte {
		name := bytes.Repeat([]byte{'n'}, nameLen)
		data := []byte("payload")
		inner := append(paddedUvarint(0x0A), paddedUvarint(uint64(nameLen))...)
		inner = append(inner, name...)
		inner = append(inner, paddedUvarint(0x12)...)
		inner = append(inner, paddedUvarint(uint64(len(data)))...)
		inner = append(inner, data...)
		out := append(paddedUvarint(0x0A), paddedUvarint(uint64(len(inner)))...)
		return append(out, inner...)
	}
	blob := frame(4096)
	for name, sizes := range map[string]func(int) int{
		"whole": func(r int) int { return r },
		"byte":  func(int) int { return 1 },
	} {
		dir := splitInto(t, blob, sizes)
		if got, _ := dir.Get(string(bytes.Repeat([]byte{'n'}, 4096))); string(got) != "payload" {
			t.Errorf("%s: longest-header frame decoded to %q", name, got)
		}
	}
	sp := image.NewStreamSplitter(0)
	if _, err := sp.Write(frame(4097)); err == nil {
		t.Error("a name over the cap was accepted")
	}
}

// TestDirSinkLargeFile: a file larger than what a splitter commits up
// front on a header's say-so still lands intact through the growth path,
// and a splitter told the stream's length allocates it once, exactly.
func TestDirSinkLargeFile(t *testing.T) {
	d := image.NewImageDir()
	big := make([]byte, 20<<20)
	rand.New(rand.NewSource(3)).Read(big)
	d.Put("pages.img", big)
	blob := d.Marshal()
	for name, total := range map[string]int{"claimed": 0, "known": len(blob)} {
		sp := image.NewStreamSplitter(total)
		for off := 0; off < len(blob); off += 4 << 20 {
			if _, err := sp.Write(blob[off:min(off+4<<20, len(blob))]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		dir, err := sp.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _ := dir.Get("pages.img")
		if !bytes.Equal(got, big) {
			t.Errorf("%s: large file corrupted in the splitter", name)
		}
		if name == "known" && cap(got) != len(big) {
			t.Errorf("known-length splitter: buffer cap %d for a %d-byte file, want exact", cap(got), len(big))
		}
	}
}

// aliases reports whether b starts inside within's bytes.
func aliases(b, within []byte) bool {
	if len(b) == 0 || len(within) == 0 {
		return false
	}
	off := uintptr(unsafe.Pointer(&b[0])) - uintptr(unsafe.Pointer(&within[0]))
	return off < uintptr(len(within))
}

// TestDirSinkAliasesWholeChunks: chunks are stable, so a file delivered in
// one chunk is kept by reference — parsing a 3 MB blob allocates none of
// its payload, and every file of the directory lies inside the blob,
// capped at its own end — while a file split across two Writes is
// assembled in a buffer of its own, byte for byte as before.
func TestDirSinkAliasesWholeChunks(t *testing.T) {
	d := testDir()
	pages := make([]byte, 3<<20)
	rand.New(rand.NewSource(11)).Read(pages)
	d.Put("pages.img", pages)
	blob := d.Marshal()

	whole, err := image.UnmarshalImageDir(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range whole.Names() {
		got, _ := whole.Get(n)
		want, _ := d.Get(n)
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs after the round trip", n)
		}
		if len(got) > 0 && (!aliases(got[:1], blob) || cap(got) != len(got)) {
			t.Errorf("%s: %d bytes, cap %d, inside the blob: %v — want a capped slice of the blob", n, len(got), cap(got), aliases(got[:1], blob))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := image.UnmarshalImageDir(blob); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("parsing a %d-byte blob allocated %d bytes: the payload was copied", len(blob), got)
	}

	// Cut inside pages.img: that file alone spans two chunks.
	cut := len(blob) - len(pages)/2
	split := splitInto(t, blob, func(r int) int { return r - (len(blob) - cut) })
	if !bytes.Equal(split.Marshal(), blob) {
		t.Fatal("a file split across two writes was assembled differently")
	}
	if got, _ := split.Get("pages.img"); aliases(got[:1], blob) || cap(got) != len(pages) {
		t.Errorf("a two-chunk pages.img must be assembled in its own exact buffer: cap %d for %d bytes, inside the blob: %v", cap(got), len(pages), aliases(got[:1], blob))
	}
	if got, _ := split.Get("mm.img"); !aliases(got[:1], blob) {
		t.Error("mm.img arrived in one chunk of the split stream and was copied")
	}
}
