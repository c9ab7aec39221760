package criu

import (
	"encoding/json"
	"fmt"

	"github.com/dapper-sim/dapper/internal/image"
)

// CritDoc is the human-readable (JSON) form of an image directory, the
// equivalent of CRIU's CRIT tool output. The DAPPER rewriter operates on
// the binary images; CRIT exists for inspection and for scripting
// transformations, exactly as in the paper ("decode to JSON, encode back").
type CritDoc struct {
	Inventory *InventoryImage `json:"inventory,omitempty"`
	MM        *MMImage        `json:"mm,omitempty"`
	Pagemap   *PagemapImage   `json:"pagemap,omitempty"`
	Files     *FilesImage     `json:"files,omitempty"`
	Cores     []*CoreImage    `json:"cores,omitempty"`
	// Pages carries the raw page payload (base64 in JSON).
	Pages []byte `json:"pages,omitempty"`
	// Extra keeps unknown image files (e.g. policy-specific additions).
	Extra map[string][]byte `json:"extra,omitempty"`
}

// Decode converts an image directory to its CRIT document: the open view,
// with any file that does not decode an error.
func Decode(dir *ImageDir) (*CritDoc, error) {
	v := image.Open(dir)
	doc := &CritDoc{Inventory: v.Inventory, MM: v.MM, Pagemap: v.Pagemap, Files: v.Files, Extra: v.Extra}
	for _, name := range v.Names() {
		if err := v.Fault(name); err != nil {
			return nil, err
		}
		if c, ok := v.Cores[name]; ok {
			doc.Cores = append(doc.Cores, c)
		}
	}
	doc.Pages, _ = dir.Get(image.PagesName)
	return doc, nil
}

// Encode converts a CRIT document back to an image directory.
func Encode(doc *CritDoc) *ImageDir {
	dir := NewImageDir()
	v := image.Open(dir)
	v.Inventory, v.MM, v.Pagemap, v.Files = doc.Inventory, doc.MM, doc.Pagemap, doc.Files
	for _, c := range doc.Cores {
		v.PutCore(c)
	}
	v.Commit()
	if doc.Pages != nil {
		dir.Put(image.PagesName, doc.Pages)
	}
	for name, raw := range doc.Extra {
		dir.Put(name, raw)
	}
	return dir
}

// DecodeJSON renders an image directory as indented JSON.
func DecodeJSON(dir *ImageDir) ([]byte, error) {
	doc, err := Decode(dir)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(doc, "", "  ")
}

// EncodeJSON parses CRIT JSON back into an image directory.
func EncodeJSON(data []byte) (*ImageDir, error) {
	var doc CritDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("criu: crit json: %w", err)
	}
	return Encode(&doc), nil
}
