package imgproto

import (
	"bytes"
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
