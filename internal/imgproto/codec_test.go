package imgproto

import (
	"bytes"
	"compress/flate"
	"crypto/rand"
	"encoding/binary"
	"io"
	"math"
	mrand "math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/imgproto/imgprototest"
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

// sparsePages is intPages with every word under 2^24 — the benchmark
// image's shape: five of the eight byte lanes are zero from end to end.
func sparsePages(n int) []byte {
	raw := intPages(n)
	for off := 0; off < len(raw); off += 32 {
		e := uint64(off / 32)
		binary.LittleEndian.PutUint64(raw[off+16:], 0x100000+e*96)
	}
	return raw
}

// stridePages builds n pages shaped like a key-value server's heap of
// records: pointer-like words a constant 48 bytes apart, with a jump of
// up to 1 MiB to a new base every 320 words. As words they occupy four
// lanes; as differences, three, and one almost everywhere: every block
// goes out as differences.
func stridePages(n int) []byte {
	raw := make([]byte, n*4096)
	x := uint64(0x9e3779b97f4a7c15)
	v := uint64(0x10000000)
	for i := 0; i < len(raw)/8; i++ {
		if i%320 == 0 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v += x >> 44
		}
		binary.LittleEndian.PutUint64(raw[8*i:], v)
		v += 48
	}
	return raw
}

// planesOf splits buf into eight planes of n bytes each.
func planesOf(buf []byte, n int) *[8][]byte {
	var planes [8][]byte
	for j := range planes {
		planes[j] = buf[j*n : (j+1)*n]
	}
	return &planes
}

// toPlanes transposes src, read as little-endian 64-bit words, into its
// eight byte planes with the encoder's kernel: dst holds byte 0 of every
// word, then byte 1 of every word, and so on, and last the len(src)%8
// bytes that make up no whole word, unchanged. Nothing depends on where
// the guest's words start within src: a payload out of phase by k bytes
// yields the same planes in rotated order.
func toPlanes(dst, src []byte) {
	n := len(src) / 8
	toLanes(planesOf(dst, n), src[:8*n], 0, false)
	copy(dst[8*n:], src[8*n:])
}

// fromPlanes is toPlanes' inverse, on the decoder's kernel.
func fromPlanes(dst, src []byte) {
	n := len(src) / 8
	fromLanes(dst[:8*n], planesOf(src, n), 0, false)
	copy(dst[8*n:], src[8*n:])
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
		sparsePages(300),
		stridePages(300),
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

// TestPlanesLayout pins the transposition the wire format names — byte k
// of every whole word in plane k, planes in order, the len%8 tail last
// and unchanged — then the lane and difference maps laid over it, and
// holds the eight-words-at-a-time kernels, words and differences, to the
// byte-wise reference in both directions for every length class at every
// word phase.
func TestPlanesLayout(t *testing.T) {
	src := []byte("A1234567B1234567C1234567xyz")
	const want = "ABC" + "111" + "222" + "333" + "444" + "555" + "666" + "777" + "xyz"
	got := make([]byte, len(src))
	toPlanes(got, src)
	if string(got) != want {
		t.Fatalf("planes of %q = %q, want %q", src, got, want)
	}

	// Three blocks: lanes 0 and 2 of the first occupied, the second all
	// zero, the third five words long with lanes 0 and 7 occupied, and a
	// three-byte tail. Each block's differences occupy as many lanes as
	// its words or more, so the difference map is zero.
	raw := bytes.Repeat([]byte{0xB0, 0, 0xB2, 0, 0, 0, 0, 0}, laneBlock)
	raw = append(raw, make([]byte, 8*laneBlock)...)
	raw = append(raw, bytes.Repeat([]byte{0xC0, 0, 0, 0, 0, 0, 0, 0xC7}, 5)...)
	raw = append(raw, "xyz"...)
	wantMap := []byte{1<<0 | 1<<2, 0, 1<<0 | 1<<7}
	wantBody := bytes.Repeat([]byte{0xB0}, laneBlock)         // lane 0, block 0
	wantBody = append(wantBody, 0xC0, 0xC0, 0xC0, 0xC0, 0xC0) // lane 0, block 2
	wantBody = append(wantBody, bytes.Repeat([]byte{0xB2}, laneBlock)...)
	wantBody = append(wantBody, 0xC7, 0xC7, 0xC7, 0xC7, 0xC7)
	wantBody = append(wantBody, "xyz"...)
	e := newFlateEncoder()
	if err := e.deflateLanes(raw); err != nil {
		t.Fatal(err)
	}
	wire := e.buf.Bytes()
	if !bytes.Equal(wire[:3], wantMap) || wire[3] != 0 {
		t.Fatalf("lane map %08b and difference map %08b, want %08b and 0", wire[:3], wire[3], wantMap)
	}
	if body, err := io.ReadAll(flate.NewReader(bytes.NewReader(wire[4:]))); err != nil || !bytes.Equal(body, wantBody) {
		t.Fatalf("%d-byte body (err %v), want lane 0 of blocks 0 and 2, lane 2 of block 0, lane 7 of block 2 and the tail: %d bytes", len(body), err, len(wantBody))
	}
	if refMap, refDelta, refBody := imgprototest.Lanes(raw, 0); !bytes.Equal(refMap, wantMap) || !bytes.Equal(refDelta, []byte{0}) || !bytes.Equal(refBody, wantBody) {
		t.Fatal("the reference encoder disagrees with the literal layout")
	}
	if back, err := CodecFlateWords.Decompress(wire, len(raw)); err != nil || !bytes.Equal(back, raw) {
		t.Fatalf("the three-block payload did not round-trip: %v", err)
	}

	// Two blocks of differences: a stride of 3 from 0 (lanes 0 and 1 as
	// words; as differences lane 0 alone, 0 and then 3 for every word
	// after), then the stride's last word repeated, which as differences
	// is all zeros and maps no lane at all.
	raw = nil
	for i := 0; i < laneBlock; i++ {
		raw = binary.LittleEndian.AppendUint64(raw, 3*uint64(i))
	}
	last := raw[len(raw)-8:]
	for i := 0; i < 9; i++ {
		raw = append(raw, last...)
	}
	wantMap, wantDelta := []byte{1 << 0, 0}, []byte{0b11}
	wantBody = append([]byte{0}, bytes.Repeat([]byte{3}, laneBlock-1)...)
	e.buf.Reset()
	if err := e.deflateLanes(raw); err != nil {
		t.Fatal(err)
	}
	if refMap, refDelta, refBody := imgprototest.Lanes(raw, 0); !bytes.Equal(refMap, wantMap) || !bytes.Equal(refDelta, wantDelta) || !bytes.Equal(refBody, wantBody) {
		t.Fatalf("the reference encoder maps %08b and %08b, want %08b and %08b", refMap, refDelta, wantMap, wantDelta)
	}
	if got := e.buf.Bytes(); !bytes.Equal(got, imgprototest.FlateWords(raw, 0)) {
		t.Fatalf("difference blocks: maps %08b, want %08b and %08b", got[:3], wantMap, wantDelta)
	}
	if back, err := CodecFlateWords.Decompress(e.buf.Bytes(), len(raw)); err != nil || !bytes.Equal(back, raw) {
		t.Fatalf("the difference payload did not round-trip: %v", err)
	}

	buf := noise(208)
	for phase := 0; phase < 8; phase++ {
		for n := 0; n <= 200; n++ {
			raw := buf[phase : phase+n]
			planes := make([]byte, n)
			toPlanes(planes, raw)
			if !bytes.Equal(planes, imgprototest.Planes(raw)) {
				t.Fatalf("phase %d length %d: toPlanes differs from the byte-wise reference", phase, n)
			}
			back := make([]byte, n)
			fromPlanes(back, planes)
			if !bytes.Equal(back, raw) {
				t.Fatalf("phase %d length %d: fromPlanes(toPlanes(x)) != x", phase, n)
			}

			// The difference kernels, from a word before that is not zero.
			const prev = 0x8877665544332211
			words := raw[:n&^7]
			diffs := imgprototest.Diff(words, prev)
			got := make([]byte, len(words))
			gotWords, gotDiffs := toLanes(planesOf(got, n/8), words, prev, true)
			if !bytes.Equal(got, imgprototest.Planes(diffs)) {
				t.Fatalf("phase %d length %d: toLanes' differences differ from the byte-wise reference", phase, n)
			}
			if gotWords != wordsOr(words) || gotDiffs != wordsOr(diffs) {
				t.Fatalf("phase %d length %d: toLanes ORs %x and %x, want %x and %x", phase, n, gotWords, gotDiffs, wordsOr(words), wordsOr(diffs))
			}
			back = make([]byte, len(words))
			fromLanes(back, planesOf(got, n/8), prev, true)
			if !bytes.Equal(back, words) {
				t.Fatalf("phase %d length %d: fromLanes' running sum does not undo the differences", phase, n)
			}
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
		{"pointer strides", stridePages(512), CodecFlateWords},
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
		plain := len(imgprototest.Deflate(tc.raw))
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

// TestCodecTrialSkipsLaneSparse: a payload over the floor goes out as
// word planes without a sample deflate once trialSparseChunks of its
// sample chunks each leave trialSparseLanes of their lanes empty — and
// with one such chunk fewer the trial runs.
func TestCodecTrialSkipsLaneSparse(t *testing.T) {
	const n = trialFloor
	for _, tc := range []struct {
		sparse int
		skip   bool
	}{{trialChunks, true}, {trialSparseChunks, true}, {trialSparseChunks - 1, false}} {
		raw := noise(n)
		for i := 0; i < tc.sparse; i++ {
			chunk := raw[(n-trialChunk)/(trialChunks-1)*i&^7:][:trialChunk]
			for off := 0; off < len(chunk); off += 8 {
				clear(chunk[off+8-trialSparseLanes : off+8])
			}
		}
		e := newFlateEncoder()
		e.buf.WriteString("not deflated")
		form, err := e.chooseForm([][]byte{raw}, n)
		if err != nil {
			t.Fatal(err)
		}
		if skipped := e.buf.String() == "not deflated"; skipped != tc.skip || skipped && form != CodecFlateWords {
			t.Errorf("%d lane-sparse chunks: trial skipped %v, want %v; form %s", tc.sparse, skipped, tc.skip, form)
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
		{sparsePages(300), CodecFlateWords},
		{stridePages(300), CodecFlateWords},
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
		// Canonical: no bit of the lane map is set over an all-zero lane,
		// and a block is differences exactly when they empty more lanes.
		if lanemap, deltamap, _ := imgprototest.Lanes(tc.raw, 0); tc.want == CodecFlateWords && !bytes.HasPrefix(a, append(lanemap, deltamap...)) {
			t.Fatalf("maps %08b, want the canonical %08b and %08b", a[:len(lanemap)+len(deltamap)], lanemap, deltamap)
		}
	}
}

// TestCodecCompressAnySplit: Compress reads its payload as a list of
// parts, and how the payload is split must not show — any split gives
// the bytes and the codec the joined payload gets, for every form:
// splits with empty parts, with parts shorter than a word, and with one
// part per byte around a lane-block edge and over the tail no whole word
// covers. A raw result is the caller's own parts, so it comes back nil.
func TestCodecCompressAnySplit(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	randomSplit := func(raw []byte) [][]byte {
		var parts [][]byte
		for len(raw) > 0 {
			n := 0
			switch rng.Intn(4) {
			case 0: // empty
			case 1:
				n = 1 + rng.Intn(7) // inside a word
			default:
				n = 1 + rng.Intn(80<<10)
			}
			n = min(n, len(raw))
			parts, raw = append(parts, raw[:n]), raw[n:]
		}
		return append(parts, nil)
	}
	bytewise := func(raw []byte, from, to int) [][]byte {
		from, to = min(max(from, 0), len(raw)), min(to, len(raw))
		parts := [][]byte{raw[:from]}
		for i := from; i < to; i++ {
			parts = append(parts, raw[i:i+1])
		}
		return append(parts, raw[to:])
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		want Codec
	}{
		{"integer words", intPages(300), CodecFlateWords},
		{"integer words out of phase", intPages(257)[3:], CodecFlateWords},
		{"pointer strides", stridePages(300), CodecFlateWords},
		{"doubles", floatPages(300), CodecFlate},
		{"noise", noise(300 * 4096), CodecNone},
		{"small batch", kvPages(7), CodecFlate},
		{"empty", nil, CodecNone},
	} {
		want, used, err := CodecFlate.Compress(tc.raw)
		if err != nil || used != tc.want {
			t.Fatalf("%s: joined payload encoded as %s, want %s (err %v)", tc.name, used, tc.want, err)
		}
		edge := 8 * laneBlock
		splits := [][][]byte{
			bytewise(tc.raw, edge-21, edge+21),
			bytewise(tc.raw, len(tc.raw)-19, len(tc.raw)),
		}
		for i := 0; i < 6; i++ {
			splits = append(splits, randomSplit(tc.raw))
		}
		for i, parts := range splits {
			got, gotUsed, err := CodecFlate.Compress(parts...)
			switch {
			case err != nil:
				t.Fatalf("%s split %d: %v", tc.name, i, err)
			case gotUsed != used:
				t.Errorf("%s split %d (%d parts): encoded as %s, joined as %s", tc.name, i, len(parts), gotUsed, used)
			case used == CodecNone && got != nil:
				t.Errorf("%s split %d: a raw payload of %d parts came back as %d bytes, not nil", tc.name, i, len(parts), len(got))
			case used != CodecNone && !bytes.Equal(got, want):
				t.Errorf("%s split %d (%d parts): %d bytes, joined %d", tc.name, i, len(parts), len(got), len(want))
			}
		}
	}
}

func TestCodecDecompressRejectsLies(t *testing.T) {
	type lie struct {
		name   string
		wire   []byte
		rawLen int
		msg    string
	}
	flip := func(wire []byte, i int, bit byte) []byte {
		wire = bytes.Clone(wire)
		wire[i] ^= bit
		return wire
	}
	for _, raw := range [][]byte{bytes.Repeat([]byte{7}, 256), intPages(300), intPages(257)[5:], stridePages(300)} {
		wire, used, err := CodecFlate.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		want, nblk, hdr := CodecFlate, 0, 0
		if len(raw) >= trialFloor {
			want, nblk = CodecFlateWords, (len(raw)/8+laneBlock-1)/laneBlock
			hdr = nblk + (nblk+7)/8
		}
		if used != want {
			t.Fatalf("%d-byte payload encoded as %s, want %s", len(raw), used, want)
		}
		short := "longer than"
		if used == CodecFlateWords && len(raw)%8 == 0 {
			// One byte less turns the last word into a seven-byte tail:
			// seven bytes more to inflate, one fewer in each of the last
			// block's occupied lanes — four for intPages, three for
			// stridePages.
			short = "truncated"
		}
		lies := []lie{
			{"short rawLen", wire, len(raw) - 1, short},
			{"long rawLen", wire, len(raw) + 1, "truncated"},
			{"truncated payload", wire[:len(wire)-2], len(raw), "unexpected EOF"},
			{"trailing bytes", append(bytes.Clone(wire), 0), len(raw), "after the end"},
			{"corrupt stream", flip(wire, hdr, wire[hdr]^0xff), len(raw), "corrupt input"},
		}
		if used == CodecFlateWords {
			// Every block of intPages and stridePages leaves lanes empty:
			// which ones is the payload's phase and form.
			empty, occupied := ^wire[0]&-^wire[0], wire[nblk-1]&-wire[nblk-1]
			if empty == 0 || occupied == 0 {
				t.Fatalf("lane map %08b has no empty lane to claim or no occupied one to deny", wire[:nblk])
			}
			if nblk%8 == 0 {
				t.Fatalf("%d blocks leave no padding bit in the difference map", nblk)
			}
			lies = append(lies,
				lie{"wire shorter than the maps", wire[:hdr-1], len(raw), "-byte difference map its"},
				lie{"wire as long as the lane map", wire[:nblk], len(raw), "-byte difference map its"},
				lie{"no wire at all", nil, len(raw), "shorter than the"},
				lie{"map bit flipped on", flip(wire, 0, empty), len(raw), "truncated"},
				lie{"map bit flipped off", flip(wire, nblk-1, occupied), len(raw), "longer than"},
				lie{"difference bit past the last block", flip(wire, hdr-1, 1<<(nblk%8)), len(raw), "past the last"},
			)
			// Not a lie: a flipped difference bit reads block 0's lanes as
			// the other form, which is data all the same.
			back, err := used.Decompress(flip(wire, nblk, 1), len(raw))
			if err != nil || len(back) != len(raw) || bytes.Equal(back, raw) {
				t.Fatalf("difference bit of block 0 flipped: %d bytes, equal to the payload %v, err %v", len(back), bytes.Equal(back, raw), err)
			}
		}
		for _, lie := range lies {
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

	// Not lies. Under eight bytes there is no word, so no block and no
	// map: the payload is the tail's DEFLATE stream alone.
	for n := 0; n < 8; n++ {
		raw := noise(n)
		wire := imgprototest.FlateWords(raw, 0)
		if !bytes.Equal(wire, imgprototest.Deflate(raw)) {
			t.Fatalf("%d raw bytes: the payload is not DEFLATE of the tail alone", n)
		}
		if back, err := CodecFlateWords.Decompress(wire, n); err != nil || !bytes.Equal(back, raw) {
			t.Fatalf("%d raw bytes did not round-trip: %v", n, err)
		}
	}
	// And a bit set over a lane-block of zeros, with the zeros in the
	// stream, is data: only the encoder is canonical.
	raw := intPages(20)
	for _, force := range []byte{1 << 7, 0xff} {
		wire := imgprototest.FlateWords(raw, force)
		if back, err := CodecFlateWords.Decompress(wire, len(raw)); err != nil || !bytes.Equal(back, raw) {
			t.Fatalf("map forced to %08b did not round-trip: %v", force, err)
		}
	}
	// What ties rawLen to the payload is the byte count the map describes
	// under it, and words in lanes the last block's map leaves empty add
	// nothing to that: a claim a zero word short decodes, to the prefix.
	raw = append(intPages(8), make([]byte, 800)...)
	if back, err := CodecFlateWords.Decompress(imgprototest.FlateWords(raw, 0), len(raw)-8); err != nil || !bytes.Equal(back, raw[:len(raw)-8]) {
		t.Fatalf("a claim one zero word short: %v", err)
	}
}

// TestCodecFlateWordsAllocBound: the lane map is the peer's word, and
// what it makes Decompress allocate is bounded by rawLen, which callers
// cap before they call — a refused payload costs at most the inflate
// buffer, never more than rawLen plus a constant whatever the map claims,
// and an accepted one on a decoder that has its buffer costs the output.
func TestCodecFlateWordsAllocBound(t *testing.T) {
	const rawLen = 4<<20 + 5
	const slack = 64 << 10
	nblk := (rawLen/8 + laneBlock - 1) / laneBlock
	ndelta := (nblk + 7) / 8
	allocated := func(d *flateDecoder, wire []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := d.inflateLanes(wire, rawLen)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	// Every lane claimed, and every block differences.
	full := append(bytes.Repeat([]byte{0xff}, nblk), bytes.Repeat([]byte{0xff}, ndelta)...)
	zeros := imgprototest.Deflate(make([]byte, rawLen))
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"only a lane map", full[:nblk]},
		{"every lane claimed, no stream", full},
		{"every lane claimed, stream too long", append(bytes.Clone(full), imgprototest.Deflate(make([]byte, rawLen+1))...)},
		{"every lane claimed, stream short", append(bytes.Clone(full), imgprototest.Deflate(make([]byte, rawLen/2))...)},
		{"no lane claimed, stream of rawLen", append(make([]byte, nblk+ndelta), zeros...)},
	} {
		n, err := allocated(newFlateDecoder(), tc.wire)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if n > rawLen+slack {
			t.Errorf("%s: refusing it allocated %d bytes, over the %d claimed", tc.name, n, rawLen)
		}
	}
	d := newFlateDecoder()
	wire := append(bytes.Clone(full), zeros...)
	if _, err := d.inflateLanes(wire, rawLen); err != nil {
		t.Fatal(err)
	}
	if n, err := allocated(d, wire); err != nil || n > rawLen+slack {
		t.Errorf("a warm decoder allocated %d bytes for %d of output (err %v)", n, rawLen, err)
	}
}

// TestCodecFlatePooledMatchesFresh: Compress reuses a pooled compressor
// and lane buffer, and a reused encoder must emit the bytes a fresh
// flate.Writer would — over the payload for the plain form; for the
// word-plane form the reference encoder's canonical lane map and its
// stream over the occupied lanes; the wire sizes other tests pin depend
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
		{sparsePages(300), CodecFlateWords},
		{stridePages(300), CodecFlateWords},
		{kvPages(7), CodecFlate},
	}
	e := newFlateEncoder()
	for round := 0; round < 2; round++ {
		for i, p := range payloads {
			want := imgprototest.Deflate(p.raw)
			if p.want == CodecFlateWords {
				want = imgprototest.FlateWords(p.raw, 0)
			}
			for _, compress := range []func(...[]byte) ([]byte, Codec, error){CodecFlate.Compress, e.compress} {
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
// planes win), the same with five of the eight lanes empty, pointers a
// constant stride apart (the benchmark image's heap: every block goes out
// as differences), repeated doubles (plain wins) and noise (sent raw).
// The form chosen and the ratio it reached are reported beside the
// timings.
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
		{"segment4M-sparse", sparsePages(1024)},
		{"segment4M-stride", stridePages(1024)},
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

// BenchmarkPlanes times the transposition alone, both directions, over a
// 4 MiB payload with every lane occupied.
func BenchmarkPlanes(b *testing.B) {
	raw := kvPages(1024)
	planes := make([]byte, len(raw))
	toPlanes(planes, raw)
	for _, dir := range []struct {
		name     string
		fn       func(dst, src []byte)
		dst, src []byte
	}{
		{"to", toPlanes, make([]byte, len(raw)), raw},
		{"from", fromPlanes, make([]byte, len(raw)), planes},
	} {
		b.Run(dir.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				dir.fn(dir.dst, dir.src)
			}
		})
	}
}
