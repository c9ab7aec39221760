package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/monitor"
)

// badStream is one malformed transfer and the refusal it must draw from
// readImageDirFrom.
type badStream struct {
	name    string
	payload []byte
	// want is a substring of the named error; empty means the stream
	// simply ends early and the reader must report io.ErrUnexpectedEOF.
	want string
}

// malformedStreams is the malformed-transfer corpus, built around a valid
// stream of blob: every header and segment bound, the codec bytes, the
// frame boundary, plain truncation, and the legacy length-prefixed
// framing this receiver no longer speaks. The last segments of a real
// dump lie inside pages.img, so the late-corruption cases strike after
// every metadata file has been delivered.
func malformedStreams(t testing.TB, blob []byte) []badStream {
	hdr := func(codec, pad byte, rawTotal uint64) []byte {
		b := append([]byte(imageMagic), codec, pad, 0, 0)
		return binary.BigEndian.AppendUint64(b, rawTotal)
	}
	seg := func(rawLen, wireLen uint32, codec byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, rawLen)
		b = binary.BigEndian.AppendUint32(b, wireLen)
		return append(b, codec)
	}
	var buf bytes.Buffer
	if _, err := writeImageStream(&buf, blob, criu.CodecNone, 4096, nil); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// lastSeg is the offset of the final segment's header.
	lastSeg := 0
	for off := imageHdrLen; off < len(valid); {
		lastSeg = off
		off += imageSegHdrLen + int(binary.BigEndian.Uint32(valid[off+4:off+8]))
	}
	mutate := func(at int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[at] = b
		return out
	}
	legacy := binary.BigEndian.AppendUint64(nil, uint64(len(blob)))
	// A well-formed file frame header announcing a terabyte it never
	// delivers: refused at the end of the stream, and never allocated.
	lying := append([]byte{0x0A, 6}, "mm.img"...)
	lying = binary.AppendUvarint(append(lying, 0x12), 1<<40)
	lying = append(binary.AppendUvarint([]byte{0x0A}, uint64(len(lying))+1<<40), lying...)
	lyingStream := append(hdr(0, 0, uint64(len(lying))), seg(uint32(len(lying)), uint32(len(lying)), 0)...)
	// The longest header the frame parser accepts — six varints padded to
	// ten bytes around a name at the cap — announcing bytes it never
	// delivers: parsed and refused, not waited on forever.
	padded := func(v uint64) []byte {
		b := bytes.Repeat([]byte{0x80}, 10)
		b[0], b[1], b[9] = byte(v)&0x7f|0x80, byte(v>>7)&0x7f|0x80, 0
		return b
	}
	const longName, owed = 4096, 5
	long := append(padded(0x0A), padded(longName)...)
	long = append(long, bytes.Repeat([]byte{'n'}, longName)...)
	long = append(append(long, padded(0x12)...), padded(owed)...)
	long = append(append(padded(0x0A), padded(uint64(len(long))+owed)...), long...)
	longStream := append(hdr(0, 0, uint64(len(long))), seg(uint32(len(long)), uint32(len(long)), 0)...)
	// A stream whose declared total stops inside a file frame.
	short := append(hdr(0, 0, 10), seg(10, 10, 0)...)
	short = append(short, blob[:10]...)

	return []badStream{
		{"legacy length-prefixed framing", append(legacy, blob...), "missing DIB3 magic"},
		{"unknown header codec", hdr(0x7F, 0, 100), "bad codec"},
		{"self-chosen form as the requested codec", hdr(2, 0, 100), "bad codec flate-words"},
		{"nonzero header padding", hdr(0, 9, 100), "nonzero header padding"},
		{"total over the cap", hdr(0, 0, 2<<30), "exceeds limit"},
		{"empty segment", append(hdr(0, 0, 100), seg(0, 0, 0)...), "empty segment"},
		{"segment over the cap", append(hdr(0, 0, 512<<20), seg(16<<20, 10, 0)...), "exceeds limit"},
		{"wire larger than raw", append(hdr(0, 0, 100), seg(10, 11, 0)...), "exceeds raw size"},
		{"segments overflow the total", append(hdr(0, 0, 4), seg(8, 8, 0)...), "overflow the declared"},
		{"total ends inside a frame", short, "stream truncated"},
		{"frame announces bytes it never delivers", append(lyingStream, lying...), "stream truncated"},
		{"longest padded frame header, payload missing", append(longStream, long...), "stream truncated"},
		{"unknown codec on the last segment", mutate(lastSeg+8, 0x7F), "bad segment codec"},
		{"uncompressed last segment labeled flate", mutate(lastSeg+8, byte(criu.CodecFlate)), "flate payload"},
		{"truncated inside the payload", valid[:len(valid)-len(blob)/2], ""},
		{"truncated inside the header", valid[:imageHdrLen-3], ""},
	}
}

func (b badStream) check(t *testing.T, err error) {
	t.Helper()
	switch {
	case err == nil:
		t.Fatal("malformed stream was accepted")
	case b.want == "" && !errors.Is(err, io.ErrUnexpectedEOF):
		t.Errorf("error %v, want io.ErrUnexpectedEOF", err)
	case !strings.Contains(err.Error(), b.want):
		t.Errorf("error %q does not name %q", err, b.want)
	}
}

const wireProgSrc = `
func main() {
	var p *int;
	var i int;
	var s int;
	p = alloc(8 * 20000);
	for i = 0; i < 20000; i = i + 1 { p[i] = i * 3 + 1; }
	for i = 0; i < 20000; i = i + 1 { s = s + p[i]; }
	printi(s);
	print("\n");
}`

// pausedDump returns a node with a program installed and the image
// directory of that program paused mid-run.
func pausedDump(t testing.TB) (*Node, *criu.ImageDir) {
	t.Helper()
	pair, err := compiler.Compile(wireProgSrc)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(XeonSpec)
	n.Install("prog", pair)
	p, err := n.Start("prog")
	if err != nil {
		t.Fatal(err)
	}
	if alive, err := n.K.RunBudget(p, 400_000); err != nil || !alive {
		t.Fatalf("run to the dump point: alive=%v err=%v", alive, err)
	}
	if err := monitor.New(n.K, p, pair.Meta).Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n.K.Reap(p)
	return n, dir
}

// TestReadImageStreamMalformed runs the corpus through the one stream
// parser. Each case must be refused with its named error and yield no
// directory — also when the stream breaks inside pages.img.
func TestReadImageStreamMalformed(t *testing.T) {
	_, dir := pausedDump(t)
	blob := dir.Marshal()

	// The corpus is built around a stream that is itself fine.
	got, _, wire, err := transfer(dir, criu.CodecNone, nil)
	if err != nil {
		t.Fatalf("valid stream refused: %v", err)
	}
	if !bytes.Equal(got.Marshal(), blob) {
		t.Error("transfer delivered a different directory")
	}
	segs := (len(blob) + imageSegment - 1) / imageSegment
	if want := uint64(len(blob) + imageHdrLen + segs*imageSegHdrLen); wire != want {
		t.Errorf("transfer reported %d wire bytes, want image + framing = %d", wire, want)
	}

	for _, tc := range malformedStreams(t, blob) {
		t.Run(tc.name+"/dir", func(t *testing.T) {
			got, err := readImageDirFrom(bytes.NewReader(tc.payload))
			tc.check(t, err)
			if got != nil {
				t.Errorf("malformed stream produced a directory: %v", got.Names())
			}
		})
	}
}

// TestRetiredDedupImageRefused: an image written by a build that still
// had within-dump page dedup (imgcheck's dedup_retired fixture is one,
// byte for byte: pagemap fields 6 and 7) must not decode as plain data
// entries. The stream itself is well-formed; the restore refuses the
// directory by name at its pre-flight, before a page is installed, and
// leaves no process behind.
func TestRetiredDedupImageRefused(t *testing.T) {
	raw, err := os.ReadFile("../imgcheck/testdata/dedup_retired.json")
	if err != nil {
		t.Fatal(err)
	}
	var docs []json.RawMessage
	if err := json.Unmarshal(raw, &docs); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.EncodeJSON(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if _, err := writeImageStream(&stream, dir.Marshal(), criu.CodecNone, 4096, nil); err != nil {
		t.Fatal(err)
	}
	node := NewNode(XeonSpec)
	t.Run("dir", func(t *testing.T) {
		got, err := readImageDirFrom(bytes.NewReader(stream.Bytes()))
		if err != nil {
			t.Fatalf("the stream itself is well-formed: %v", err)
		}
		p, err := criu.RestoreWith(node.K, got, node.Binaries, criu.RestoreOpts{})
		if err == nil {
			t.Fatal("an image with retired dedup entries was accepted")
		}
		for _, want := range []string{"image-decode", image.ErrRetiredField.Error()} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
		if p != nil {
			t.Error("a refused restore returned a process")
		}
	})
	if n := node.K.Live(); n != 0 {
		t.Errorf("%d processes adopted from a refused image", n)
	}
}

// FuzzReadImageStream: whatever bytes arrive, the stream parser returns
// a directory or an error, never a panic; a directory it does return
// survives its own codec.
func FuzzReadImageStream(f *testing.F) {
	_, dir := pausedDump(f)
	blob := dir.Marshal()
	for _, tc := range malformedStreams(f, blob) {
		f.Add(tc.payload)
	}
	for _, codec := range []criu.Codec{criu.CodecNone, criu.CodecFlate} {
		var buf bytes.Buffer
		if _, err := writeImageStream(&buf, blob, codec, 64<<10, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := readImageDirFrom(bytes.NewReader(payload))
		if err != nil {
			return
		}
		// Accepted: the directory must survive its own codec.
		back, err := criu.UnmarshalImageDir(got.Marshal())
		if err != nil {
			t.Fatalf("accepted stream re-marshals to an undecodable directory: %v", err)
		}
		if !bytes.Equal(back.Marshal(), got.Marshal()) {
			t.Fatal("accepted stream's directory does not round-trip")
		}
	})
}
