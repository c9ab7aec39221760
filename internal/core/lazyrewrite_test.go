package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestLazyRewriteBytes pins the pagemap.img and pages.img the cross-ISA
// rewrite commits for the kv_lazy benchmark's image: a class-B rediska
// server loaded with 24,000 keys and dumped for post-copy, where almost
// every page is lazy. The digests were recorded while the page set still
// kept its lazy pages in a map beside its records; a change to how the
// set holds a lazy page may not move a byte of what it stores.
func TestLazyRewriteBytes(t *testing.T) {
	dir, bins := pausedDumpOf(t, "rediska", workloads.ClassB, 24000, criu.DumpOpts{Lazy: true})
	pm, err := dir.Pagemap()
	if err != nil {
		t.Fatal(err)
	}
	n := pm.Counts()
	t.Logf("dump: %d lazy pages, %d data, %d zero", n[image.PageLazy], n[image.PageData], n[image.PageZero])
	if n[image.PageLazy] < 1000 {
		t.Fatalf("the dump has %d lazy pages; the test needs a heap left behind", n[image.PageLazy])
	}
	if err := (core.CrossISAPolicy{Target: isa.SARM}).Rewrite(dir, &core.Context{Binaries: bins}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		image.PagemapName: "b50f4ccb95a935008d355b321f8c020a722a1a7dcc4d1a5a2b68ff1b5e0e5a70",
		image.PagesName:   "640bf3aee23b0c7d35f06cd4bc4386f8ddc04fb62ab803406a0072991ec8e466",
	} {
		b, _ := dir.Get(name)
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s after the rewrite: SHA-256 %s, pinned %s", name, got, want)
		}
	}
}
