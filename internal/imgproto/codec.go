package imgproto

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// Codec selects the wire codec for transport payloads (the page
// protocol's response frames and the image-copy stream's segments; see
// docs/transport.md). The zero value is CodecNone, so a zero-initialized
// option struct means "framed, uncompressed".
type Codec uint8

const (
	// CodecNone stores each payload verbatim.
	CodecNone Codec = iota
	// CodecFlate DEFLATE-compresses each payload, choosing per payload
	// the smallest of three forms and naming the one it used in the
	// codec byte that rides beside the payload:
	// plain DEFLATE (CodecFlate), DEFLATE over the payload's occupied word
	// planes (CodecFlateWords), or the raw bytes (CodecNone) when
	// compression does not shrink them — so the wire payload never
	// exceeds the raw payload.
	CodecFlate
	// CodecFlateWords is DEFLATE of the payload's byte lanes — byte j of
	// every 64-bit word, or of every word's difference from the one before
	// — with the lanes nobody uses left out (see deflateLanes for the
	// layout). Guest scalars are 8 bytes wide, and a heap of small integers
	// is mostly zero bytes but hardly any zero words: lane by lane it is
	// slowly varying streams and lanes that are zero from end to end, where
	// byte-wise LZ77 over the words themselves meets a literal every two or
	// three bytes. CodecFlate.Compress picks it per payload; it is
	// decodable but never requestable.
	CodecFlateWords
)

// String names the codec for diagnostics and bench tables.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecFlate:
		return "flate"
	case CodecFlateWords:
		return "flate-words"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// Valid reports whether c names a codec this build can decode; readers
// check the codec byte of every segment and page frame taken off the wire
// with it before trusting the lengths that follow.
func (c Codec) Valid() bool { return c <= CodecFlateWords }

// Requestable reports whether a peer may ask for payloads to be encoded
// with c — the codec bytes of a page hello, its acknowledgment and an
// image-stream header. It is narrower than Valid: the forms CodecFlate
// chooses between on its own are named only beside a payload.
func (c Codec) Requestable() bool { return c <= CodecFlate }

// flateLevel is fixed so compressed output is deterministic for a given
// input — the byte-identity and bytes-on-wire regression tests depend on
// replayed migrations producing identical wire sizes.
const flateLevel = flate.BestSpeed

// The form trial (docs/transport.md, "Choosing the form"): a payload of
// at least trialFloor bytes has trialChunks chunks of trialChunk bytes,
// spread evenly over it, deflated both plain and as word planes; the
// smaller result names the form the whole payload is encoded in, and
// when neither saves 1/trialMinSaving of the sample the payload goes out
// raw without being deflated at all. Smaller payloads stay plain: the two
// sample deflates cost about as much as compressing 128 KiB outright. A
// sample whose chunks leave trialSparseLanes of their eight lanes all zero,
// trialSparseChunks of them or more, names the word planes undeflated:
// each empty lane is an eighth of a chunk the planes drop for a bit.
const (
	trialFloor        = 1 << 20
	trialChunks       = 16
	trialChunk        = 4096
	trialMinSaving    = 16
	trialSparseChunks = 12
	trialSparseLanes  = 4
)

// laneBlock is the number of words one byte of a CodecFlateWords lane map
// speaks for. Smaller blocks find more empty lane-blocks and pay a longer
// map; docs/perf.md, "Lanes nobody uses", has the table it was chosen
// from.
const laneBlock = 4096

// zeroLane stands in for a lane-block the map says is empty.
var zeroLane [laneBlock]byte

// flateEncoder is the reusable half of a CodecFlate Compress call: the
// compressor (about 640 KB of state a fresh flate.NewWriter allocates),
// the scratch buffer it writes into, and the buffers a payload's byte
// lanes and their maps are laid out in. A page stream compresses a
// payload per fault, so all are pooled and Reset per call; only the
// exact-size payload handed to the caller is allocated.
type flateEncoder struct {
	zw    *flate.Writer
	buf   bytes.Buffer
	lanes []byte
	maps  []byte              // a CodecFlateWords payload's lane and difference maps
	block [8 * laneBlock]byte // one lane-block of words, gathered from the parts
}

// flateDecoder is Decompress's counterpart: the inflater, the reader
// feeding it, and the buffer a CodecFlateWords payload's occupied lanes
// inflate into before they are interleaved back into words.
type flateDecoder struct {
	zr    io.ReadCloser // also a flate.Resetter
	br    bytes.Reader
	lanes []byte
}

var (
	flateEncoders = sync.Pool{New: func() any { return newFlateEncoder() }}
	flateDecoders = sync.Pool{New: func() any { return newFlateDecoder() }}
)

func newFlateDecoder() *flateDecoder {
	d := new(flateDecoder)
	d.zr = flate.NewReader(&d.br)
	return d
}

func newFlateEncoder() *flateEncoder {
	e := new(flateEncoder)
	// NewWriter fails only on a level outside flate's range.
	e.zw, _ = flate.NewWriter(&e.buf, flateLevel)
	return e
}

// deflate appends to e.buf the one DEFLATE stream of parts joined end to
// end, ending a DEFLATE block — so starting a fresh Huffman table — every
// blockLen bytes of a part. Where one part stops and the next starts
// leaves no mark: level 1 cuts its blocks by bytes taken, not by Write.
func (e *flateEncoder) deflate(blockLen int, parts ...[]byte) error {
	e.zw.Reset(&e.buf)
	for _, src := range parts {
		for ; len(src) > blockLen; src = src[blockLen:] {
			if _, err := e.zw.Write(src[:blockLen]); err != nil {
				return fmt.Errorf("imgproto: flate write: %w", err)
			}
			if err := e.zw.Flush(); err != nil {
				return fmt.Errorf("imgproto: flate flush: %w", err)
			}
		}
		if _, err := e.zw.Write(src); err != nil {
			return fmt.Errorf("imgproto: flate write: %w", err)
		}
	}
	if err := e.zw.Close(); err != nil {
		return fmt.Errorf("imgproto: flate close: %w", err)
	}
	return nil
}

// chooseForm runs the form trial on the n bytes parts hold, a function of
// those bytes alone: a replayed migration sizes every payload the same.
func (e *flateEncoder) chooseForm(parts [][]byte, n int) (Codec, error) {
	if n < trialFloor {
		return CodecFlate, nil
	}
	const sampleLen = trialChunks * trialChunk
	e.lanes = grow(e.lanes, 2*sampleLen)
	sample, planes := e.lanes[:sampleLen], e.lanes[sampleLen:]
	r := partReader{parts: parts}
	sparse := 0
	for i := 0; i < trialChunks; i++ {
		// Chunk starts keep the payload's word phase, so the sample's
		// planes are the payload's planes.
		off := (n - trialChunk) / (trialChunks - 1) * i &^ 7
		chunk := r.readAt(off, sample[i*trialChunk:][:trialChunk])
		if 8-bits.OnesCount8(occupancy(wordsOr(chunk))) >= trialSparseLanes {
			sparse++
		}
	}
	// Not all: an image opens with its metadata files, never sparse.
	if sparse >= trialSparseChunks {
		return CodecFlateWords, nil
	}
	e.buf.Reset()
	if err := e.deflate(sampleLen, sample); err != nil {
		return 0, err
	}
	plain := e.buf.Len()
	// One block per plane: level 1 starts a block every 64 KiB, so in a
	// payload over the floor no block spans two planes and each plane is
	// coded with a Huffman table of its own. Eight planes sharing the
	// sample's one table would read up to a third larger than they go out.
	var lanes [8][]byte
	for j := range lanes {
		lanes[j] = planes[j*sampleLen/8:][:sampleLen/8]
	}
	toLanes(&lanes, sample, 0, false)
	e.buf.Reset()
	if err := e.deflate(sampleLen/8, planes); err != nil {
		return 0, err
	}
	words := e.buf.Len()
	switch {
	case min(plain, words) > sampleLen-sampleLen/trialMinSaving:
		return CodecNone, nil
	case words < plain:
		return CodecFlateWords, nil
	default:
		return CodecFlate, nil
	}
}

// compress is CodecFlate.Compress on this encoder.
func (e *flateEncoder) compress(parts ...[]byte) ([]byte, Codec, error) {
	n := partsLen(parts)
	form, err := e.chooseForm(parts, n)
	e.buf.Reset()
	switch {
	case err != nil: // returned below
	case form == CodecFlateWords:
		err = e.deflateLanes(parts...)
	case form == CodecFlate:
		err = e.deflate(n, parts...)
	}
	if err != nil {
		return nil, 0, err
	}
	if form == CodecNone || e.buf.Len() >= n {
		return verbatim(parts), CodecNone, nil
	}
	return bytes.Clone(e.buf.Bytes()), form, nil
}

// partsLen is the length of the payload parts hold.
func partsLen(parts [][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// verbatim is the CodecNone payload of parts (see Compress).
func verbatim(parts [][]byte) []byte {
	if len(parts) == 1 {
		return parts[0]
	}
	return nil
}

// partReader reads a payload held as a list of parts, front to back.
type partReader struct {
	parts [][]byte // the parts not yet read past
	at    int      // the payload offset parts[0] starts at
}

// readAt copies the payload's bytes from off on into dst, and returns
// dst. Successive offsets never go back.
func (r *partReader) readAt(off int, dst []byte) []byte {
	for n := 0; n < len(dst); {
		if p := r.parts[0]; off+n < r.at+len(p) {
			n += copy(dst[n:], p[off+n-r.at:])
		} else {
			r.at, r.parts = r.at+len(p), r.parts[1:]
		}
	}
	return dst
}

// deflateLanes appends to e.buf the CodecFlateWords payload of the bytes
// parts hold, read end to end as raw:
//
//	lanemap ‖ deltamap ‖ DEFLATE(occupied lane-blocks ‖ tail)
//
// raw's len(raw)/8 whole words are cut into blocks of laneBlock words, the
// last one possibly short. The maps are outside the DEFLATE stream, so
// their lengths follow from len(raw) alone: a byte per block, then a bit
// per block (bit b%8 of byte b/8, zero past the last block). A block whose
// difference bit is set stores word i − word i−1 mod 2^64 (word −1: the
// last of the block before, or 0) in place of word i; it is set exactly
// when that leaves strictly more lanes all zero. Bit j of the lane-map
// byte is set when byte j of any stored word is non-zero. Only those
// lane-blocks are in the stream, each the block's byte j of every stored
// word in order, laid lane-major — all of lane 0's, then all of lane 1's
// — so level 1's 64 KiB blocks still give each lane a Huffman table of
// its own, and last the len(raw)%8 bytes that make up no whole word.
// Every bit depends on the block's bytes and the word before it alone, so
// equal payloads encode to equal bytes. Blocks are gathered to e.block.
func (e *flateEncoder) deflateLanes(parts ...[]byte) error {
	n := partsLen(parts)
	nw := n / 8
	nblk := (nw + laneBlock - 1) / laneBlock
	e.lanes = grow(e.lanes, 8*nw)
	e.maps = grow(e.maps, nblk+(nblk+7)/8)
	clear(e.maps)
	lanemap, deltamap := e.maps[:nblk], e.maps[nblk:]
	r := partReader{parts: parts}
	// Lane j's blocks collect at the front of its own nw-byte region. Each
	// block is transposed to where every lane's next block would start, and
	// only the lanes it turns out to occupy move past it.
	var fill [8]int
	var prev uint64 // the word before the block
	delta := false  // the form the block before took: this one's guess
	for b := range lanemap {
		off := b * laneBlock
		bw := min(laneBlock, nw-off)
		var dst [8][]byte
		for j := range dst {
			dst[j] = e.lanes[j*nw+fill[j]:][:bw]
		}
		block := r.readAt(8*off, e.block[:8*bw])
		words, diffs := toLanes(&dst, block, prev, delta)
		if want := bits.OnesCount8(occupancy(diffs)) < bits.OnesCount8(occupancy(words)); want != delta {
			delta = want
			toLanes(&dst, block, prev, delta)
		}
		if delta {
			words = diffs
			deltamap[b/8] |= 1 << (b % 8)
		}
		lanemap[b] = occupancy(words)
		for j := range fill {
			fill[j] += int(lanemap[b]>>j&1) * bw
		}
		prev = binary.LittleEndian.Uint64(block[len(block)-8:])
	}
	e.buf.Write(e.maps)
	var lanes [9][]byte
	for j := range fill {
		lanes[j] = e.lanes[j*nw:][:fill[j]]
	}
	lanes[8] = r.readAt(8*nw, e.block[:n%8])
	return e.deflate(n, lanes[:]...)
}

// occupancy is the lane-map byte of words whose OR is or: bit j is set
// when byte j of or is non-zero.
func occupancy(or uint64) (occupied byte) {
	for j := 0; j < 8; j++ {
		if byte(or>>(8*j)) != 0 {
			occupied |= 1 << j
		}
	}
	return occupied
}

// wordsOr returns the OR of src's whole little-endian 64-bit words.
func wordsOr(src []byte) (or uint64) {
	for ; len(src) >= 8; src = src[8:] {
		or |= binary.LittleEndian.Uint64(src)
	}
	return or
}

// inflate decodes wire into dst, which it must fill exactly.
func (d *flateDecoder) inflate(dst, wire []byte) error {
	defer d.br.Reset(nil) // do not pin the caller's payload in the pool
	d.br.Reset(wire)
	if err := d.zr.(flate.Resetter).Reset(&d.br, nil); err != nil {
		return fmt.Errorf("imgproto: flate init: %w", err)
	}
	if _, err := io.ReadFull(d.zr, dst); err != nil {
		return fmt.Errorf("imgproto: flate payload truncated: %w", err)
	}
	// The stream must end exactly at len(dst): trailing bytes mean the
	// header lied and the connection is desynchronized.
	var extra [1]byte
	if n, _ := d.zr.Read(extra[:]); n != 0 {
		return fmt.Errorf("imgproto: flate payload longer than the %d-byte header claims", len(dst))
	}
	if err := d.zr.Close(); err != nil {
		return fmt.Errorf("imgproto: flate payload corrupt: %w", err)
	}
	// The inflater takes wire a byte at a time and stops inside the one
	// holding the stream's last bit, so anything left over is not its.
	if n := d.br.Len(); n != 0 {
		return fmt.Errorf("imgproto: flate payload has %d bytes after the end of its stream", n)
	}
	return nil
}

// inflateLanes decodes a CodecFlateWords payload (see deflateLanes) of
// rawLen raw bytes. The maps, sized by rawLen, must be on the wire, with
// no difference bit past the last block. The lane map then sizes the
// inflate buffer — never past rawLen, whatever it claims — and the stream
// must fill that buffer exactly, as inflate checks, before the output is
// made. Set bits the encoder would not set are data like any other: only
// the encoder is canonical. What ties rawLen to the payload is that byte
// count, so a rawLen other than the encoder's is refused when it changes
// the maps' length or what the lane map adds up to — not when the words
// it adds or drops lie in lanes the last block's map leaves empty.
func (d *flateDecoder) inflateLanes(wire []byte, rawLen int) ([]byte, error) {
	nw := rawLen / 8
	nblk := (nw + laneBlock - 1) / laneBlock
	hdr := nblk + (nblk+7)/8
	if len(wire) < hdr {
		return nil, fmt.Errorf("imgproto: flate-words payload of %d bytes is shorter than the %d-byte lane map and %d-byte difference map its %d raw bytes need", len(wire), nblk, hdr-nblk, rawLen)
	}
	lanemap, deltamap, wire := wire[:nblk], wire[nblk:hdr], wire[hdr:]
	if nblk%8 != 0 && deltamap[nblk/8]>>(nblk%8) != 0 {
		return nil, fmt.Errorf("imgproto: flate-words difference map byte %08b sets a bit past the last of its %d blocks", deltamap[nblk/8], nblk)
	}
	var next [8]int // where lane j's next block starts; first, lane j's length
	for b, occupied := range lanemap {
		bw := min(laneBlock, nw-b*laneBlock)
		for j := range next {
			next[j] += int(occupied>>j&1) * bw
		}
	}
	total := 0
	for j, n := range next {
		next[j], total = total, total+n
	}
	d.lanes = grow(d.lanes, total+rawLen%8)
	if err := d.inflate(d.lanes, wire); err != nil {
		return nil, err
	}
	raw := make([]byte, rawLen)
	for b, occupied := range lanemap {
		// A difference block with no lane occupied repeats the word before.
		delta := deltamap[b/8]>>(b%8)&1 != 0
		if occupied == 0 && !delta {
			continue
		}
		off := b * laneBlock
		bw := min(laneBlock, nw-off)
		var src [8][]byte
		for j := range src {
			if occupied>>j&1 != 0 {
				src[j] = d.lanes[next[j]:][:bw]
				next[j] += bw
			} else {
				src[j] = zeroLane[:bw]
			}
		}
		prev := wordsOr(raw[max(8*off-8, 0) : 8*off]) // the word before, or 0
		fromLanes(raw[8*off:8*(off+bw)], &src, prev, delta)
	}
	copy(raw[8*nw:], d.lanes[total:])
	return raw, nil
}

// grow returns buf resized to n bytes, reallocating (and dropping the old
// contents) only when its capacity is short.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// transpose8 transposes the 8×8 byte matrix whose row k is word k, least
// significant byte first: byte j of result k is byte k of argument j.
// Three rounds of masked swaps exchange the off-diagonal 4×4 blocks, then
// the 2×2 blocks within each of those, then single bytes — all in
// registers. It is its own inverse, so both directions run it.
func transpose8(a0, a1, a2, a3, a4, a5, a6, a7 uint64) (_, _, _, _, _, _, _, _ uint64) {
	const m32, m16, m8 = 0x00000000ffffffff, 0x0000ffff0000ffff, 0x00ff00ff00ff00ff
	a0, a4 = swapBits(a0, a4, 32, m32)
	a1, a5 = swapBits(a1, a5, 32, m32)
	a2, a6 = swapBits(a2, a6, 32, m32)
	a3, a7 = swapBits(a3, a7, 32, m32)

	a0, a2 = swapBits(a0, a2, 16, m16)
	a1, a3 = swapBits(a1, a3, 16, m16)
	a4, a6 = swapBits(a4, a6, 16, m16)
	a5, a7 = swapBits(a5, a7, 16, m16)

	a0, a1 = swapBits(a0, a1, 8, m8)
	a2, a3 = swapBits(a2, a3, 8, m8)
	a4, a5 = swapBits(a4, a5, 8, m8)
	a6, a7 = swapBits(a6, a7, 8, m8)
	return a0, a1, a2, a3, a4, a5, a6, a7
}

// swapBits exchanges the bits of a under mask<<shift with the bits of b
// under mask.
func swapBits(a, b uint64, shift uint, mask uint64) (uint64, uint64) {
	t := (a>>shift ^ b) & mask
	return a ^ t<<shift, b ^ t
}

// toLanes writes byte j of word i of src — little-endian 64-bit words,
// len(src) a multiple of 8 — to lanes[j][i], eight words at a time, or
// with delta set byte j of word i − word i−1 (word −1 is prev). It returns
// the OR of the words and the OR of the differences, whichever it wrote.
func toLanes(lanes *[8][]byte, src []byte, prev uint64, delta bool) (words, diffs uint64) {
	le := binary.LittleEndian
	n := len(src) / 8
	l0, l1, l2, l3 := lanes[0][:n], lanes[1][:n], lanes[2][:n], lanes[3][:n]
	l4, l5, l6, l7 := lanes[4][:n], lanes[5][:n], lanes[6][:n], lanes[7][:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		s := src[8*i : 8*i+64]
		a0, a1, a2, a3 := le.Uint64(s), le.Uint64(s[8:]), le.Uint64(s[16:]), le.Uint64(s[24:])
		a4, a5, a6, a7 := le.Uint64(s[32:]), le.Uint64(s[40:]), le.Uint64(s[48:]), le.Uint64(s[56:])
		d0, d1, d2, d3, d4, d5, d6, d7 := a0-prev, a1-a0, a2-a1, a3-a2, a4-a3, a5-a4, a6-a5, a7-a6
		words, diffs, prev = words|a0|a1|a2|a3|a4|a5|a6|a7, diffs|d0|d1|d2|d3|d4|d5|d6|d7, a7
		if delta {
			a0, a1, a2, a3, a4, a5, a6, a7 = d0, d1, d2, d3, d4, d5, d6, d7
		}
		a0, a1, a2, a3, a4, a5, a6, a7 = transpose8(a0, a1, a2, a3, a4, a5, a6, a7)
		le.PutUint64(l0[i:], a0)
		le.PutUint64(l1[i:], a1)
		le.PutUint64(l2[i:], a2)
		le.PutUint64(l3[i:], a3)
		le.PutUint64(l4[i:], a4)
		le.PutUint64(l5[i:], a5)
		le.PutUint64(l6[i:], a6)
		le.PutUint64(l7[i:], a7)
	}
	for ; i < n; i++ {
		w := le.Uint64(src[8*i:])
		d := w - prev
		words, diffs, prev = words|w, diffs|d, w
		if delta {
			w = d
		}
		l0[i], l1[i], l2[i], l3[i] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		l4[i], l5[i], l6[i], l7[i] = byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56)
	}
	return words, diffs
}

// fromLanes is toLanes' inverse: word i of dst takes its byte j from
// lanes[j][i], and with delta set adds dst's word i−1 (word −1 is prev).
func fromLanes(dst []byte, lanes *[8][]byte, prev uint64, delta bool) {
	le := binary.LittleEndian
	n := len(dst) / 8
	l0, l1, l2, l3 := lanes[0][:n], lanes[1][:n], lanes[2][:n], lanes[3][:n]
	l4, l5, l6, l7 := lanes[4][:n], lanes[5][:n], lanes[6][:n], lanes[7][:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		a0, a1, a2, a3 := le.Uint64(l0[i:]), le.Uint64(l1[i:]), le.Uint64(l2[i:]), le.Uint64(l3[i:])
		a4, a5, a6, a7 := le.Uint64(l4[i:]), le.Uint64(l5[i:]), le.Uint64(l6[i:]), le.Uint64(l7[i:])
		a0, a1, a2, a3, a4, a5, a6, a7 = transpose8(a0, a1, a2, a3, a4, a5, a6, a7)
		if delta {
			a0 += prev
			a1 += a0
			a2 += a1
			a3 += a2
			a4 += a3
			a5 += a4
			a6 += a5
			a7 += a6
			prev = a7
		}
		d := dst[8*i : 8*i+64]
		le.PutUint64(d, a0)
		le.PutUint64(d[8:], a1)
		le.PutUint64(d[16:], a2)
		le.PutUint64(d[24:], a3)
		le.PutUint64(d[32:], a4)
		le.PutUint64(d[40:], a5)
		le.PutUint64(d[48:], a6)
		le.PutUint64(d[56:], a7)
	}
	for ; i < n; i++ {
		w := uint64(l0[i]) | uint64(l1[i])<<8 | uint64(l2[i])<<16 | uint64(l3[i])<<24 |
			uint64(l4[i])<<32 | uint64(l5[i])<<40 | uint64(l6[i])<<48 | uint64(l7[i])<<56
		if delta {
			w += prev
			prev = w
		}
		le.PutUint64(dst[8*i:], w)
	}
}

// Compress encodes the payload parts hold, read end to end and never
// joined (one buffer is one part), and returns it with the codec that
// actually encoded it — for CodecFlate one of CodecFlate, CodecFlateWords
// and CodecNone, so it is never longer than the parts. A CodecNone
// payload is the one part, aliased, or nil for several: the caller sends
// its parts. Callers must write it before reusing the buffers.
func (c Codec) Compress(parts ...[]byte) ([]byte, Codec, error) {
	switch c {
	case CodecNone:
		return verbatim(parts), CodecNone, nil
	case CodecFlate:
		e := flateEncoders.Get().(*flateEncoder)
		defer flateEncoders.Put(e)
		return e.compress(parts...)
	default:
		return nil, 0, fmt.Errorf("imgproto: codec %s cannot encode payloads", c)
	}
}

// Decompress decodes a payload produced by Compress with this
// codec, verifying it expands to exactly rawLen bytes with no trailing
// garbage.
func (c Codec) Decompress(wire []byte, rawLen int) ([]byte, error) {
	switch c {
	case CodecNone:
		if len(wire) != rawLen {
			return nil, fmt.Errorf("imgproto: uncompressed payload is %d bytes, header says %d", len(wire), rawLen)
		}
		return wire, nil
	case CodecFlate:
		d := flateDecoders.Get().(*flateDecoder)
		defer flateDecoders.Put(d)
		raw := make([]byte, rawLen)
		if err := d.inflate(raw, wire); err != nil {
			return nil, err
		}
		return raw, nil
	case CodecFlateWords:
		d := flateDecoders.Get().(*flateDecoder)
		defer flateDecoders.Put(d)
		return d.inflateLanes(wire, rawLen)
	default:
		return nil, fmt.Errorf("imgproto: codec %s cannot decode payloads", c)
	}
}
