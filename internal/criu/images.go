// Package criu implements the checkpoint/restore substrate DAPPER builds
// on: dumping a stopped process into a directory of image files
// (core-<tid>, mm, pagemap, pages, files, inventory), restoring a process
// from images, a CRIT-style decoder to and from JSON, and the lazy-pages
// (post-copy) page server.
//
// The image formats themselves (typed views, wire codec, ImageDir,
// PageSet) live in internal/image; this file re-exports them under their
// historical criu names so existing callers — and the paper's CRIU
// vocabulary — keep working. New code that only reads or verifies images
// (e.g. internal/imgcheck) should import internal/image directly.
package criu

import (
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgproto"
)

// Image types, re-exported from internal/image. Type aliases preserve
// identity: a criu.ImageDir IS an image.ImageDir, so values flow freely
// between the codec layer, the verifier, and the restore machinery.
type (
	// CoreImage is core-<tid>.img: one thread's architectural state.
	CoreImage = image.CoreImage
	// VMAEntry describes one mapped area in the mm image.
	VMAEntry = image.VMAEntry
	// MMImage is mm.img: the address-space description.
	MMImage = image.MMImage
	// PagemapEntry describes a run of pages (see image.PagemapEntry for
	// the lazy/in_parent/zero flag semantics).
	PagemapEntry = image.PagemapEntry
	// PagemapImage is pagemap.img: the index into pages.img.
	PagemapImage = image.PagemapImage
	// FilesImage is files.img: the open files (here, the executable).
	FilesImage = image.FilesImage
	// MutexEntry is a held mutex recorded in the inventory.
	MutexEntry = image.MutexEntry
	// InventoryImage is inventory.img: dump-wide facts.
	InventoryImage = image.InventoryImage
	// ImageDir is the checkpoint directory (held in memory, like the
	// paper's tmpfs checkpoint target).
	ImageDir = image.ImageDir
	// PageSet is an editable view of pagemap.img + pages.img.
	PageSet = image.PageSet
)

// UnmarshalFiles decodes a files image; on an error the image is
// incomplete.
func UnmarshalFiles(b []byte) (*FilesImage, error) {
	f := &FilesImage{}
	return f, imgproto.Unmarshal(b, f)
}

// NewImageDir returns an empty directory.
func NewImageDir() *ImageDir { return image.NewImageDir() }

// UnmarshalImageDir parses a directory blob; the directory aliases b.
func UnmarshalImageDir(b []byte) (*ImageDir, error) { return image.UnmarshalImageDir(b) }

// LoadPageSet parses the pagemap/pages pair from a directory.
func LoadPageSet(dir *ImageDir) (*PageSet, error) { return image.LoadPageSet(dir) }

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
