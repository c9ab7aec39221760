package imgproto

import (
	"bytes"
	"compress/flate"
	"crypto/rand"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// noise fills n bytes from a xorshift generator: deterministic, and
// nothing flate can shrink.
func noise(n int) []byte {
	raw := make([]byte, n)
	x := uint32(0x9e3779b9)
	for i := range raw {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		raw[i] = byte(x)
	}
	return raw
}

// kvPages builds n pages of 8-byte words, a quarter of them
// pseudo-random in all 64 bits and the rest in their low 16 —
// compressible the way real page payloads are, not the way a constant
// fill is, but with too much noise for either flate form to beat the
// other by 1 %: the trial's tie case.
func kvPages(n int) []byte {
	raw := make([]byte, n*4096)
	x := uint64(0x9e3779b97f4a7c15)
	for off := 0; off < len(raw); off += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := x
		if off/8%4 != 0 {
			v &= 0xffff
		}
		binary.LittleEndian.PutUint64(raw[off:], v)
	}
	return raw
}

// intPages builds n pages shaped like a key-value server's heap of
// integer words — hashed 16-bit keys, slowly counting values, heap
// pointers a stride apart, small pseudo-random lengths: two thirds zero
// bytes, hardly a zero word. Word planes suit it.
func intPages(n int) []byte {
	raw := make([]byte, n*4096)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < len(raw)/8; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var v uint64
		switch e := uint64(i / 4); i % 4 {
		case 0:
			v = x >> 48
		case 1:
			v = e / 3
		case 2:
			v = 0x10000000 + e*96
		case 3:
			v = x >> 60
		}
		binary.LittleEndian.PutUint64(raw[8*i:], v)
	}
	return raw
}

// floatPages builds n pages shaped like a numeric kernel's heap: doubles
// drawn from a table of 256 values, so whole 8-byte values repeat — which
// LZ77 matches and a plane split destroys. Plain DEFLATE suits it.
func floatPages(n int) []byte {
	var table [256]uint64
	for i := range table {
		table[i] = math.Float64bits(math.Sqrt(float64(i)+2) * 1.0000001)
	}
	raw := make([]byte, n*4096)
	x := uint64(0x2545f4914f6cdd1d)
	for off := 0; off < len(raw); off += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(raw[off:], table[x>>56])
	}
	return raw
}

// deflateFresh is the reference encoder: a flate.Writer nothing has used.
func deflateFresh(t testing.TB, raw []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	zw, err := flate.NewWriter(&out, flateLevel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// planesOf is toPlanes into a fresh buffer.
func planesOf(raw []byte) []byte {
	dst := make([]byte, len(raw))
	toPlanes(dst, raw)
	return dst
}

func TestCodecRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		[]byte("hello"),
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte("abcd"), 1024),
		noise(4096),
		kvPages(300),
		intPages(300),
		floatPages(300),
		noise(trialFloor),
	}
	// Every length class mod 8 through the word-plane form's tail copy.
	for k := 1; k < 8; k++ {
		payloads = append(payloads, intPages(257)[k:])
	}
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		for i, raw := range payloads {
			wire, used, err := codec.Compress(raw)
			if err != nil {
				t.Fatalf("%s payload %d: compress: %v", codec, i, err)
			}
			if !used.Valid() {
				t.Fatalf("%s payload %d: compress reported unknown codec %s", codec, i, used)
			}
			if len(wire) > len(raw) {
				t.Fatalf("%s payload %d: wire %d bytes exceeds raw %d", codec, i, len(wire), len(raw))
			}
			got, err := used.Decompress(wire, len(raw))
			if err != nil {
				t.Fatalf("%s payload %d: decompress: %v", codec, i, err)
			}
			if !bytes.Equal(got, raw) {
				t.Fatalf("%s payload %d: round trip mismatch", codec, i)
			}
		}
	}
}

// TestPlanesLayout pins the transposition the wire format names: byte k
// of every whole word in plane k, planes in order, the len%8 tail last
// and unchanged — and fromPlanes undoing it for every length class.
func TestPlanesLayout(t *testing.T) {
	src := []byte("A1234567B1234567C1234567xyz")
	const want = "ABC" + "111" + "222" + "333" + "444" + "555" + "666" + "777" + "xyz"
	if got := string(planesOf(src)); got != want {
		t.Fatalf("planes of %q = %q, want %q", src, got, want)
	}
	raw := noise(200)
	for n := 0; n <= len(raw); n++ {
		back := make([]byte, n)
		fromPlanes(back, planesOf(raw[:n]))
		if !bytes.Equal(back, raw[:n]) {
			t.Fatalf("length %d: fromPlanes(toPlanes(x)) != x", n)
		}
	}
}

// TestCodecFlateChoosesForm: the form is the payload's, not the caller's
// — integer-shaped words go out as planes, repeated doubles as plain
// DEFLATE, noise raw — and a payload under the trial floor stays plain
// whatever its shape.
func TestCodecFlateChoosesForm(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
		want Codec
	}{
		{"integers", intPages(512), CodecFlateWords},
		{"integers, out of phase", intPages(512)[3:], CodecFlateWords},
		{"a quarter noise", kvPages(512), CodecFlate},
		{"doubles", floatPages(512), CodecFlate},
		{"noise", noise(2 * trialFloor), CodecNone},
		{"integers under the floor", intPages(255), CodecFlate},
		{"integers at the floor", intPages(256), CodecFlateWords},
	} {
		wire, used, err := CodecFlate.Compress(tc.raw)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if used != tc.want {
			t.Errorf("%s: encoded as %s, want %s", tc.name, used, tc.want)
		}
		plain := len(deflateFresh(t, tc.raw))
		if len(wire) > plain+plain/50 {
			t.Errorf("%s: %s form is %d bytes, plain DEFLATE %d", tc.name, used, len(wire), plain)
		}
	}
	if _, _, err := CodecFlateWords.Compress(intPages(512)); err == nil {
		t.Error("the word-plane form was accepted as a requested codec")
	}
	if CodecFlateWords.Requestable() || !CodecFlateWords.Valid() || !CodecFlate.Requestable() || !CodecNone.Requestable() {
		t.Error("requestable codecs are none and flate; the word-plane form is decodable only")
	}
}

func TestCodecFlateShrinksRedundantPages(t *testing.T) {
	raw := bytes.Repeat([]byte{0xAB, 0, 0, 0}, 2048)
	wire, used, err := CodecFlate.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	if used != CodecFlate {
		t.Fatalf("redundant payload fell back to %s", used)
	}
	if len(wire) >= len(raw)/4 {
		t.Fatalf("flate only shrank %d -> %d bytes", len(raw), len(wire))
	}
}

func TestCodecFlateFallsBackOnIncompressible(t *testing.T) {
	for _, raw := range [][]byte{noise(512), noise(2 * trialFloor)} {
		// An encoder of the test's own, so the scratch buffer shows what
		// this one call deflated.
		e := newFlateEncoder()
		wire, used, err := e.compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		if used != CodecNone {
			t.Fatalf("incompressible %d-byte payload kept codec %s", len(raw), used)
		}
		if !bytes.Equal(wire, raw) {
			t.Fatal("fallback payload is not the raw bytes")
		}
		// Over the floor the sample alone decides: had the whole payload
		// been deflated, its (larger) output would have sized the buffer.
		if len(raw) >= trialFloor && e.buf.Cap() >= len(raw)/4 {
			t.Fatalf("%d-byte payload: output buffer grew to %d bytes — the trial did not short-circuit", len(raw), e.buf.Cap())
		}
	}
}

func TestCodecCompressDeterministic(t *testing.T) {
	for _, tc := range []struct {
		raw  []byte
		want Codec
	}{
		{bytes.Repeat([]byte("state-rewriting"), 512), CodecFlate},
		{intPages(300), CodecFlateWords},
		{floatPages(300), CodecFlate},
	} {
		a, usedA, err := CodecFlate.Compress(tc.raw)
		if err != nil {
			t.Fatal(err)
		}
		b, usedB, err := CodecFlate.Compress(tc.raw)
		if err != nil {
			t.Fatal(err)
		}
		if usedA != tc.want || usedB != tc.want {
			t.Fatalf("encoded as %s then %s, want %s", usedA, usedB, tc.want)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s output differs between identical inputs", tc.want)
		}
	}
}

func TestCodecDecompressRejectsLies(t *testing.T) {
	for _, raw := range [][]byte{bytes.Repeat([]byte{7}, 256), intPages(300), intPages(257)[5:]} {
		wire, used, err := CodecFlate.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		want := CodecFlate
		if len(raw) >= trialFloor {
			want = CodecFlateWords
		}
		if used != want {
			t.Fatalf("%d-byte payload encoded as %s, want %s", len(raw), used, want)
		}
		for _, lie := range []struct {
			name   string
			wire   []byte
			rawLen int
			msg    string
		}{
			{"short rawLen", wire, len(raw) - 1, "longer than"},
			{"long rawLen", wire, len(raw) + 1, "truncated"},
			{"truncated payload", wire[:len(wire)-2], len(raw), "unexpected EOF"},
			{"trailing bytes", append(bytes.Clone(wire), 0), len(raw), "after the end"},
			{"corrupt stream", append([]byte{0xff}, wire[1:]...), len(raw), "corrupt input"},
		} {
			_, err := used.Decompress(lie.wire, lie.rawLen)
			if err == nil {
				t.Fatalf("%s: %s accepted", used, lie.name)
			}
			if !strings.Contains(err.Error(), lie.msg) {
				t.Fatalf("%s: %s refused as %q, want it to mention %q", used, lie.name, err, lie.msg)
			}
		}
	}
	if _, err := CodecNone.Decompress([]byte{1, 2, 3}, 4); err == nil {
		t.Fatal("CodecNone length mismatch accepted")
	}
	if unknown := CodecFlateWords + 1; unknown.Valid() || unknown.Requestable() {
		t.Fatalf("%s reads as a valid codec", unknown)
	} else if _, err := unknown.Decompress(nil, 0); err == nil {
		t.Fatalf("%s accepted as a batch codec", unknown)
	}
}

// TestCodecFlatePooledMatchesFresh: Compress reuses a pooled compressor
// and plane buffer, and a reused encoder must emit the bytes a fresh
// flate.Writer would — over the payload for the plain form, over its
// planes for the word-plane form; the wire sizes other tests pin depend
// on it — whatever it compressed before, the other form included.
func TestCodecFlatePooledMatchesFresh(t *testing.T) {
	payloads := []struct {
		raw  []byte
		want Codec
	}{
		{kvPages(32), CodecFlate},
		{intPages(300), CodecFlateWords},
		{bytes.Repeat([]byte("abcd"), 1024), CodecFlate},
		{intPages(257)[3:], CodecFlateWords},
		{floatPages(300), CodecFlate},
		{kvPages(7), CodecFlate},
	}
	e := newFlateEncoder()
	for round := 0; round < 2; round++ {
		for i, p := range payloads {
			want := deflateFresh(t, p.raw)
			if p.want == CodecFlateWords {
				want = deflateFresh(t, planesOf(p.raw))
			}
			for _, compress := range []func([]byte) ([]byte, Codec, error){CodecFlate.Compress, e.compress} {
				got, used, err := compress(p.raw)
				if err != nil || used != p.want {
					t.Fatalf("round %d payload %d: used %s, want %s, err %v", round, i, used, p.want, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d payload %d: reused encoder emitted %d bytes, a fresh one %d", round, i, len(got), len(want))
				}
				back, err := used.Decompress(got, len(p.raw))
				if err != nil || !bytes.Equal(back, p.raw) {
					t.Fatalf("round %d payload %d: round trip failed: %v", round, i, err)
				}
			}
		}
	}
}

// BenchmarkCodecFlate measures the flate codec at the two sizes the
// transport uses it at — a 32-page batch of the page stream, under the
// form trial's floor, and a 4 MiB segment of the image stream — and, for
// the segment, on each shape the trial tells apart: integer words (word
// planes win), repeated doubles (plain wins) and noise (sent raw). The
// form chosen and the ratio it reached are reported beside the timings.
func BenchmarkCodecFlate(b *testing.B) {
	random := make([]byte, 4<<20)
	if _, err := rand.Read(random); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"batch128K", kvPages(32)},
		{"segment4M", kvPages(1024)},
		{"segment4M-int", intPages(1024)},
		{"segment4M-float", floatPages(1024)},
		{"segment4M-random", random},
	} {
		raw := c.raw
		wire, used, err := CodecFlate.Compress(raw)
		if err != nil {
			b.Fatalf("%s: %v", c.name, err)
		}
		report := func(b *testing.B) {
			b.ReportMetric(float64(used), "form")
			b.ReportMetric(float64(len(raw))/float64(len(wire)), "ratio")
		}
		b.Run(c.name+"/compress", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := CodecFlate.Compress(raw); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
		b.Run(c.name+"/decompress", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := used.Decompress(wire, len(raw)); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
	}
}
