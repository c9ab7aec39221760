package imgcheck

import "github.com/dapper-sim/dapper/internal/image"

// StreamVerifier is the incremental "VerifyStream" mode of the static
// image verifier: the streaming restore path feeds it image files as
// they complete on the wire, and it runs every invariant whose inputs
// are in hand — the metadata sweeps fire the moment pages.img is
// *announced* (image files sort metadata-first, so by then inventory,
// mm, pagemap, and the cores have all landed), while page payloads are
// still in flight. The pre-flight cost therefore hides under the
// transfer instead of extending the downtime window.
//
// The checks are the ones VerifyLink runs (shared helpers, same
// diagnostics in the same order), with one substitution: the
// pages.img byte accounting (InvPagesBytes) runs against the size the
// stream announced rather than a materialized file. The stream framing
// delivers exactly that many payload bytes or fails, so the two are
// equivalent. Non-streamed restores keep the whole-image VerifyLink.
type StreamVerifier struct {
	dir *image.ImageDir
}

// NewStreamVerifier returns a verifier accumulating files for a
// streaming restore.
func NewStreamVerifier() *StreamVerifier {
	return &StreamVerifier{dir: image.NewImageDir()}
}

// File ingests one completed image file. The verifier retains the slice.
func (sv *StreamVerifier) File(name string, data []byte) {
	sv.dir.Put(name, data)
}

// Dir exposes the directory accumulated so far (the restore path decodes
// metadata from the same copy the verifier checked).
func (sv *StreamVerifier) Dir() *image.ImageDir { return sv.dir }

// VerifyMeta runs every VerifyLink invariant that does not need the page
// payload — decode, VMA/pagemap ordering and flags, address-space
// coverage, core/thread checks — plus the InvPagesBytes accounting
// against declaredPagesLen, the size the wire announced for pages.img.
// Call it when pages.img is announced; like VerifyLink it permits lazy
// and in_parent entries (the flatten check is the restore path's own).
func (sv *StreamVerifier) VerifyMeta(declaredPagesLen int) error {
	var r Report
	// decode requires pages.img present; it has not landed yet, so check
	// a shallow view holding an empty placeholder (slices shared, so the
	// copy is a handful of map entries).
	view := image.NewImageDir()
	for _, n := range sv.dir.Names() {
		b, _ := sv.dir.Get(n)
		view.Put(n, b)
	}
	if _, ok := view.Get("pages.img"); !ok {
		view.Put("pages.img", nil)
	}
	d := decode(view, &r)
	if d != nil {
		checkStructureMeta(d, &r)
		checkAddressSpace(d, &r)
		checkPagesBytes(declaredPagesLen, d.pm, &r)
	}
	return r.Err()
}
