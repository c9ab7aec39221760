package imgcheck_test

import (
	"bytes"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/mem"
)

// damage runs a byte program over a chain's pagemaps, three bytes an
// instruction — link, run, operation: flip one of a run's four flags, drop
// the run, or duplicate it — and returns the damaged copy. Each touched
// link gets a pages.img sized to what its pagemap now describes, so the
// damage reaches the chain checks instead of stopping at pages-bytes.
func damage(t *testing.T, chain []*criu.ImageDir, prog []byte) []*criu.ImageDir {
	out := make([]*criu.ImageDir, len(chain))
	pms := make([]*image.PagemapImage, len(chain))
	for i, link := range chain {
		v := image.Open(link)
		if err := v.Fault(image.PagemapName); err != nil {
			t.Fatal(err)
		}
		pms[i] = v.Pagemap
		out[i] = criu.NewImageDir()
		for _, name := range link.Names() {
			raw, _ := link.Get(name)
			out[i].Put(name, raw)
		}
	}
	for ; len(prog) >= 3; prog = prog[3:] {
		i := int(prog[0]) % len(pms)
		pm := pms[i]
		if len(pm.Entries) == 0 || len(pm.Entries) > 16 {
			continue
		}
		j := int(prog[1]) % len(pm.Entries)
		en := &pm.Entries[j]
		switch prog[2] % 6 {
		case 0:
			en.Lazy = !en.Lazy
		case 1:
			en.InParent = !en.InParent
		case 2:
			en.Zero = !en.Zero
		case 3:
			en.Delta = !en.Delta
		case 4:
			pm.Entries = append(pm.Entries[:j:j], pm.Entries[j+1:]...)
		case 5:
			pm.Entries = append(pm.Entries[:j+1:j+1], pm.Entries[j:]...)
		}
		n := pm.Counts()
		out[i].Put(image.PagemapName, imgproto.Marshal(pm))
		out[i].Put(image.PagesName, bytes.Repeat([]byte{0x41 + byte(i)}, (n[image.PageData]+n[image.PageDelta])*mem.PageSize))
	}
	return out
}

// FuzzChainFold: whatever is done to a chain's pagemaps, pushing it link
// by link either refuses a link by invariant name or folds to a directory
// that passes Verify — never a panic, and never a verdict other than
// VerifyChain's.
func FuzzChainFold(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	sort.Strings(paths)
	var chains [][]*criu.ImageDir
	for _, path := range paths {
		if chain := loadFixture(f, path); len(chain) > 1 {
			f.Add(uint8(len(chains)), []byte{})
			chains = append(chains, chain)
		}
	}
	// Starting points that fold: the third chain (skipped_in_parent.json)
	// with link 2's in_parent run made data, the same with further damage,
	// and the first with its root's in_parent made data under a delta.
	f.Add(uint8(2), []byte{2, 0, 1})
	f.Add(uint8(2), []byte{2, 0, 1, 1, 0, 4, 0, 0, 3})
	f.Add(uint8(0), []byte{0, 0, 1, 1, 0, 1, 1, 0, 3})
	f.Fuzz(func(t *testing.T, which uint8, prog []byte) {
		chain := damage(t, chains[int(which)%len(chains)], prog)
		var c imgcheck.Chain
		refused := false
		for i, link := range chain {
			err := c.Push(image.Open(link))
			if err == nil {
				continue
			}
			refused = true
			if !strings.Contains(err.Error(), "imgcheck: ") {
				t.Fatalf("link %d refused without an invariant name: %v", i, err)
			}
		}
		verdict, whole := c.Verify(), imgcheck.VerifyChain(chain)
		if (verdict == nil) != (whole == nil) || (verdict != nil && verdict.Error() != whole.Error()) {
			t.Fatalf("pushed link by link the chain's verdict is %v, VerifyChain's %v", verdict, whole)
		}
		if refused && verdict == nil {
			t.Fatal("a link was refused and the chain then verified clean")
		}
		flat, err := c.Flatten()
		if refused != (err != nil) {
			t.Fatalf("a link refused: %v, but Flatten says %v", refused, err)
		}
		if verdict == nil {
			if err := imgcheck.Verify(flat); err != nil {
				t.Fatalf("the chain verified clean and flattened to a directory that fails Verify: %v", err)
			}
		}
	})
}
