package image

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/dapper-sim/dapper/internal/imgproto"
)

// The image files of a directory. Core images are named by CoreName.
const (
	InventoryName = "inventory.img"
	FilesName     = "files.img"
	MMName        = "mm.img"
	PagemapName   = "pagemap.img"
	PagesName     = "pages.img"

	corePrefix = "core-"
)

// CoreName returns the core image filename for a thread.
func CoreName(tid int) string { return corePrefix + strconv.Itoa(tid) + ".img" }

// ErrMissing is what View.Fault wraps for a file the directory lacks.
var ErrMissing = errors.New("missing")

// View is the typed reading of one image directory — what CRIT prints:
// every image file decoded once, when the view is opened. A file that is
// absent or does not decode leaves its field nil and Fault says which;
// nothing else about a broken directory is an error here, so a verifier
// can name every fault and a rewriter can ask only for what it needs.
//
// While a view is open it is the directory's only writer: edit the typed
// forms and the page set, then Commit once. A Put behind a view's back
// leaves it describing bytes the directory no longer holds, so a view
// never outlives the stage that opened it.
type View struct {
	Inventory *InventoryImage
	Files     *FilesImage
	MM        *MMImage
	Pagemap   *PagemapImage
	// Cores holds every core image that decoded, by file name.
	Cores map[string]*CoreImage
	// Pages is pages.img as the directory holds it.
	Pages Payload
	// Extra holds the files the view has no typed form for.
	Extra map[string][]byte

	dir    *ImageDir
	faults map[string]error // files that are present and do not decode
	ps     *PageSet         // loaded on first use
}

// Open decodes dir.
func Open(dir *ImageDir) *View {
	v := &View{dir: dir, Cores: map[string]*CoreImage{}, Extra: map[string][]byte{}, faults: map[string]error{}}
	v.Pages, _ = dir.Payload()
	for name, raw := range dir.files {
		var err error
		switch {
		case name == InventoryName:
			v.Inventory, err = decode[InventoryImage](name, raw)
		case name == FilesName:
			v.Files, err = decode[FilesImage](name, raw)
		case name == MMName:
			v.MM, err = decode[MMImage](name, raw)
		case name == PagemapName:
			v.Pagemap, err = decode[PagemapImage](name, raw)
		case name == PagesName:
		case strings.HasPrefix(name, corePrefix):
			var c *CoreImage
			if c, err = decode[CoreImage](name, raw); err == nil {
				v.Cores[name] = c
			}
		default:
			v.Extra[name] = raw
		}
		if err != nil {
			v.faults[name] = err
		}
	}
	return v
}

// decode reads the image file name holds as a T.
func decode[T any](name string, raw []byte) (*T, error) {
	v := new(T)
	if err := imgproto.Unmarshal(raw, v); err != nil {
		return nil, fmt.Errorf("image: %s: %w", name, err)
	}
	return v, nil
}

// Names lists the directory's files in sorted order.
func (v *View) Names() []string { return v.dir.Names() }

// Fault reports why a named file has no typed form in the view — an error
// wrapping ErrMissing if the directory lacks it, the decoder's error if it
// did not decode — for the first of names that has a fault, and nil when
// every one of them is there to read.
func (v *View) Fault(names ...string) error {
	for _, name := range names {
		if _, ok := v.dir.files[name]; !ok {
			return fmt.Errorf("image: %w %s", ErrMissing, name)
		}
		if err := v.faults[name]; err != nil {
			return err
		}
	}
	return nil
}

// Core returns a thread's core image, or its file's fault.
func (v *View) Core(tid int) (*CoreImage, error) {
	name := CoreName(tid)
	return v.Cores[name], v.Fault(name)
}

// PutCore replaces (or adds) a thread's core image.
func (v *View) PutCore(c *CoreImage) { v.Cores[CoreName(c.TID)] = c }

// PageSet returns the editable page set over the view's pagemap and
// pages, loaded on the first call. It belongs to the view: Commit stores
// it.
func (v *View) PageSet() (*PageSet, error) {
	if v.ps != nil {
		return v.ps, nil
	}
	err := v.Fault(PagemapName)
	if err == nil {
		v.ps, err = newPageSet(v.Pagemap, v.Pages)
	}
	return v.ps, err
}

// Commit encodes the view back into its directory: every typed form it
// holds, and the page set if anything loaded it (the pagemap's typed form
// otherwise). Files the view could not decode, and Extra, stay as they
// are. This is the view's one write, and its last act.
func (v *View) Commit() {
	if v.Inventory != nil {
		v.dir.Put(InventoryName, imgproto.Marshal(v.Inventory))
	}
	if v.Files != nil {
		v.dir.Put(FilesName, imgproto.Marshal(v.Files))
	}
	if v.MM != nil {
		v.dir.Put(MMName, imgproto.Marshal(v.MM))
	}
	for name, c := range v.Cores {
		v.dir.Put(name, imgproto.Marshal(c))
	}
	if v.ps != nil {
		v.ps.Store(v.dir)
	} else if v.Pagemap != nil {
		v.dir.Put(PagemapName, imgproto.Marshal(v.Pagemap))
	}
}
