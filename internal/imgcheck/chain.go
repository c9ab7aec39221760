package imgcheck

import "github.com/dapper-sim/dapper/internal/image"

// Chain is an incremental checkpoint chain checked and folded one link at
// a time, oldest first — what a pre-copy destination holds while rounds
// arrive. After each accepted Push it holds, as resolved content, what a
// full dump at that checkpoint would; the zero Chain is empty and ready.
// It keeps the newest link's view and borrows every link's pages: no link
// may be written while it, or a directory it flattened to, is in use.
type Chain struct {
	// err is the first refused link's violations. Nothing newer is judged
	// against a state that link never established.
	err    error
	links  int
	state  *image.PageSet // resolved content as of the newest link
	newest *image.View
}

// Push checks the next link over the view the caller opened — CheckLink's
// structure, then every page against the chain so far — and folds it in
// with image.FoldLink, the one rule for how a page resolves against older
// links. A structurally unsound link is never folded.
func (c *Chain) Push(v *image.View) error {
	if c.err != nil {
		return c.err
	}
	r := CheckLink(v)
	if len(r.Violations) == 0 {
		state, err := image.FoldLink(c.state, v.Pagemap, v.Pages, func(addr uint64, marked image.PageClass) {
			if marked == image.PageDelta {
				r.add(InvDeltaChain, "link %d: delta page 0x%x has no content in the chain as of the link before to apply the XOR to", c.links, addr)
			} else {
				r.add(InvInParent, "link %d: page 0x%x marked in_parent but absent from the chain as of the link before (a root has none: cyclic or truncated)", c.links, addr)
			}
		})
		if err != nil {
			r.add(InvPagesBytes, "link %d: %v", c.links, err)
		}
		c.state, c.newest = state, v
	}
	c.links++
	c.err = r.Err()
	return c.err
}

// Verify is Verify's verdict on the chain as pushed: the refusal of a
// link, or the newest link's address-space checks — all a Push leaves out,
// since no older link's address space gets restored.
func (c *Chain) Verify() error {
	if c.err != nil {
		return c.err
	}
	r := &Report{}
	if c.newest == nil {
		r.add(InvInParent, "empty chain")
	} else {
		checkAddressSpace(c.newest, r)
	}
	return r.Err()
}

// Flatten squashes an accepted chain into one self-contained directory:
// the newest link's non-page images and the folded content, stored without
// copying a page.
func (c *Chain) Flatten() (*image.ImageDir, error) {
	if c.err != nil || c.newest == nil {
		return nil, c.Verify()
	}
	return c.newest.Flatten(c.state), nil
}

// VerifyChain checks an incremental checkpoint chain ordered oldest (root)
// to newest (final delta): every link's structure, every in_parent and
// delta page against the chain as of the link before (the root has none),
// and the newest link's address space. It stops at the first bad link.
func VerifyChain(chain []*image.ImageDir) error {
	var c Chain
	for _, dir := range chain {
		_ = c.Push(image.Open(dir)) // Verify returns the first refusal
	}
	return c.Verify()
}
