package imgproto

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		[]byte("hello"),
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte("abcd"), 1024),
	}
	// A high-entropy page that flate cannot shrink.
	noisy := make([]byte, 4096)
	x := uint32(0x9e3779b9)
	for i := range noisy {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		noisy[i] = byte(x)
	}
	payloads = append(payloads, noisy)

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
	raw := make([]byte, 512)
	x := uint32(1)
	for i := range raw {
		x = x*1664525 + 1013904223
		raw[i] = byte(x >> 24)
	}
	wire, used, err := CodecFlate.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	if used != CodecNone {
		t.Fatalf("incompressible payload kept codec %s", used)
	}
	if !bytes.Equal(wire, raw) {
		t.Fatal("fallback payload is not the raw bytes")
	}
}

func TestCodecCompressDeterministic(t *testing.T) {
	raw := bytes.Repeat([]byte("state-rewriting"), 512)
	a, _, err := CodecFlate.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := CodecFlate.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("flate output differs between identical inputs")
	}
}

func TestCodecDecompressRejectsLies(t *testing.T) {
	raw := bytes.Repeat([]byte{7}, 256)
	wire, used, err := CodecFlate.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := used.Decompress(wire, len(raw)-1); err == nil {
		t.Fatal("short rawLen accepted")
	}
	if _, err := used.Decompress(wire[:len(wire)-2], len(raw)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := CodecNone.Decompress([]byte{1, 2, 3}, 4); err == nil {
		t.Fatal("CodecNone length mismatch accepted")
	}
	if unknown := CodecFlate + 1; unknown.Valid() {
		t.Fatalf("%s reads as a valid codec", unknown)
	} else if _, err := unknown.Decompress(nil, 0); err == nil {
		t.Fatalf("%s accepted as a batch codec", unknown)
	}
}

// TestCodecFlatePooledMatchesFresh: Compress reuses a pooled compressor,
// and a reused one must emit the bytes a fresh flate.Writer would — the
// wire sizes other tests pin depend on it — whatever it compressed
// before.
func TestCodecFlatePooledMatchesFresh(t *testing.T) {
	payloads := [][]byte{
		kvPages(32),
		bytes.Repeat([]byte("abcd"), 1024),
		kvPages(7),
	}
	for round := 0; round < 2; round++ {
		for i, raw := range payloads {
			var want bytes.Buffer
			zw, err := flate.NewWriter(&want, flateLevel)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := zw.Write(raw); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			got, used, err := CodecFlate.Compress(raw)
			if err != nil || used != CodecFlate {
				t.Fatalf("round %d payload %d: used %s, err %v", round, i, used, err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("round %d payload %d: pooled compressor emitted %d bytes, a fresh one %d", round, i, len(got), want.Len())
			}
			back, err := used.Decompress(got, len(raw))
			if err != nil || !bytes.Equal(back, raw) {
				t.Fatalf("round %d payload %d: round trip failed: %v", round, i, err)
			}
		}
	}
}

// kvPages builds n pages shaped like a key-value heap: 8-byte words,
// most of them small integers, some pseudo-random — compressible the
// way real page payloads are, not the way a constant fill is.
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

// BenchmarkCodecFlate measures the flate codec at the two sizes the
// transport uses it at: a 32-page batch of the page stream and a 4 MiB
// segment of the image stream.
func BenchmarkCodecFlate(b *testing.B) {
	for _, size := range []struct {
		name  string
		pages int
	}{{"batch128K", 32}, {"segment4M", 1024}} {
		raw := kvPages(size.pages)
		wire, used, err := CodecFlate.Compress(raw)
		if err != nil || used != CodecFlate {
			b.Fatalf("%s: used %s, err %v", size.name, used, err)
		}
		b.Run(size.name+"/compress", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := CodecFlate.Compress(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/decompress", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := used.Decompress(wire, len(raw)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
