package image_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestDecodeRefusesOverflow: a number too large for the Go field it
// decodes into, or one array element too many, refuses the file and names
// the field, instead of decoding as a different, valid-looking image that
// the verifier would then accept. The same file with the value in range
// decodes.
func TestDecodeRefusesOverflow(t *testing.T) {
	pagemap := func(nrPages uint64) []byte {
		var e imgproto.Encoder
		e.Message(1, func(n *imgproto.Encoder) {
			n.Fixed64(1, 0x10000)
			n.Uint64(2, nrPages)
		})
		return e.Bytes()
	}
	mm := func(kind, prot uint64) []byte {
		var e imgproto.Encoder
		e.Message(1, func(n *imgproto.Encoder) {
			n.Fixed64(1, 0x10000)
			n.Fixed64(2, 0x20000)
			n.Uint64(3, kind)
			n.Uint64(4, prot)
		})
		e.Fixed64(2, 0x20000)
		return e.Bytes()
	}
	core := func(arch uint64, nregs int) []byte {
		var e imgproto.Encoder
		e.Uint64(1, 1)
		e.Uint64(2, arch)
		for r := 0; r < nregs; r++ {
			e.Fixed64(3, uint64(r))
		}
		return e.Bytes()
	}
	for _, c := range []struct {
		name, file, field string
		ok, bad           []byte
	}{
		{"pagemap run of 2^32+1 pages", image.PagemapName, "PagemapEntry.NrPages", pagemap(1), pagemap(1<<32 | 1)},
		{"vma kind 257", image.MMName, "VMAEntry.Kind", mm(1, 7), mm(257, 7)},
		{"vma prot 263", image.MMName, "VMAEntry.Prot", mm(1, 7), mm(1, 263)},
		{"core arch 257", image.CoreName(1), "CoreImage.Arch", core(1, 16), core(257, 16)},
		{"core with 17 registers", image.CoreName(1), "CoreImage.Regs.R", core(1, 16), core(1, 17)},
	} {
		for i, raw := range [][]byte{c.ok, c.bad} {
			dir := image.NewImageDir()
			dir.Put(c.file, raw)
			err := image.Open(dir).Fault(c.file)
			switch refuse := i == 1; {
			case !refuse && err != nil:
				t.Errorf("%s: the in-range file is refused: %v", c.name, err)
			case refuse && err == nil:
				t.Errorf("%s: decoded", c.name)
			case refuse && !strings.Contains(err.Error(), c.field):
				t.Errorf("%s: refusal %q does not name %s", c.name, err, c.field)
			}
		}
	}
}

// imageTypes makes a fresh typed form of each metadata image file.
var imageTypes = map[string]func() any{
	"inventory": func() any { return new(image.InventoryImage) },
	"files":     func() any { return new(image.FilesImage) },
	"mm":        func() any { return new(image.MMImage) },
	"pagemap":   func() any { return new(image.PagemapImage) },
	"core":      func() any { return new(image.CoreImage) },
}

// FuzzImageDecode: whatever bytes a metadata image file holds, decoding
// them as each image type either refuses them or yields a value that
// survives its own encoding unchanged; it never panics.
func FuzzImageDecode(f *testing.F) {
	for _, dir := range seedDirs(f) {
		for _, name := range dir.Names() {
			if name != image.PagesName {
				raw, _ := dir.Get(name)
				f.Add(raw)
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for name, fresh := range imageTypes {
			v := fresh()
			if imgproto.Unmarshal(raw, v) != nil {
				continue
			}
			back := fresh()
			if err := imgproto.Unmarshal(imgproto.Marshal(v), back); err != nil || !reflect.DeepEqual(v, back) {
				t.Errorf("%s: %+v re-decodes as %+v (%v)", name, v, back, err)
			}
		}
	})
}

// seedDirs returns a rediska server's dump and every image set of the
// imgcheck fixture corpus.
func seedDirs(f *testing.F) []*image.ImageDir {
	w, err := workloads.Get("rediska")
	if err != nil {
		f.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		f.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	p, err := k.StartProcess(pair.X86.LoadSpec(compiler.ExePath("rediska", pair.X86.Arch)))
	if err != nil {
		f.Fatal(err)
	}
	p.PushInput(workloads.RediskaLoad(100))
	for st := (kernel.StepStatus{}); st.Blocked == 0 || p.PendingInput() > 0; {
		if st, err = k.Step(p); err != nil {
			f.Fatal(err)
		}
	}
	if err := monitor.New(k, p, pair.Meta).Pause(1 << 20); err != nil {
		f.Fatal(err)
	}
	dump, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		f.Fatal(err)
	}
	dirs := []*image.ImageDir{dump}

	paths, err := filepath.Glob("../imgcheck/testdata/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no imgcheck fixtures (%v)", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var docs []json.RawMessage
		if err := json.Unmarshal(raw, &docs); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for _, doc := range docs {
			dir, err := criu.EncodeJSON(doc)
			if err != nil {
				f.Fatalf("%s: %v", path, err)
			}
			dirs = append(dirs, dir)
		}
	}
	return dirs
}
