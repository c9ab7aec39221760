// Package criu implements the checkpoint/restore substrate DAPPER builds
// on: dumping a stopped process into a directory of image files
// (core-<tid>, mm, pagemap, pages, files, inventory), restoring a process
// from images, a CRIT-style decoder to and from JSON, and the lazy-pages
// (post-copy) page server.
//
// The image formats themselves (typed views, wire codec, ImageDir,
// PageSet) live in internal/image, and code names them there. This file
// re-exports ImageDir, PageSet, UnmarshalFiles, UnmarshalImageDir and
// LoadPageSet only because the host-time benchmark (bench/) still names
// them; they go when ROADMAP item 2(d) rewrites bench/, and with them
// PageSet.LazyPages, which only LoadPageSet fills. The codec names are the
// transport's own vocabulary (MigrateOpts.Codec, PageClientOpts).
package criu

import (
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgproto"
)

// Image types, re-exported from internal/image. Type aliases preserve
// identity: a criu.ImageDir IS an image.ImageDir.
type (
	// ImageDir is the checkpoint directory (held in memory, like the
	// paper's tmpfs checkpoint target).
	ImageDir = image.ImageDir
	// PageSet is an editable view of pagemap.img + pages.img.
	PageSet = image.PageSet
)

// UnmarshalFiles decodes a files image; on an error the image is
// incomplete.
func UnmarshalFiles(b []byte) (*image.FilesImage, error) {
	f := &image.FilesImage{}
	return f, imgproto.Unmarshal(b, f)
}

// UnmarshalImageDir parses a directory blob; the directory aliases b.
func UnmarshalImageDir(b []byte) (*ImageDir, error) { return image.UnmarshalImageDir(b) }

// LoadPageSet parses the pagemap/pages pair from a directory and lists
// the pagemap's lazy pages in LazyPages, where bench/ picks the pages its
// page-fetch probe asks for.
func LoadPageSet(dir *ImageDir) (*PageSet, error) {
	ps, err := image.LoadPageSet(dir)
	if err != nil {
		return nil, err
	}
	pm, _ := dir.Pagemap() // the load above decoded it without error
	ps.LazyPages = map[uint64]bool{}
	pm.EachPage(func(a uint64, class image.PageClass) {
		if class == image.PageLazy {
			ps.LazyPages[a] = true
		}
	})
	return ps, nil
}

// Codec selects the wire codec for transport payloads (image segments and
// page responses); see imgproto.Codec and docs/transport.md. Re-exported so
// transport callers need not import the codec layer directly.
type Codec = imgproto.Codec

// Wire codecs, re-exported from imgproto.
const (
	// CodecNone frames payloads without compression (the zero value).
	CodecNone = imgproto.CodecNone
	// CodecFlate DEFLATE-compresses each framed payload, over the
	// payload's bytes or its word planes, whichever a sample of it says
	// is smaller; the form used is named beside each payload and is
	// nothing a caller selects.
	CodecFlate = imgproto.CodecFlate
)

// wireFormCounters names the "wire.form.*" counters by the codec byte a
// payload went out under.
var wireFormCounters = [...]string{
	CodecNone:                "wire.form.none",
	CodecFlate:               "wire.form.flate",
	imgproto.CodecFlateWords: "wire.form.words",
}

// WireFormCounter names the counter of payloads sent in the form used,
// a codec Compress returned: with CodecFlate requested, the three say how
// many payloads went out raw, as plain DEFLATE and as DEFLATE
// over word planes — the first thing to read when one migration's wire
// is ten times another's.
func WireFormCounter(used Codec) string { return wireFormCounters[used] }
