// Tests live in imgcheck_test so they can use criu's codecs and dump
// paths as an oracle without an import cycle (criu.Restore itself calls
// imgcheck as a pre-flight).
package imgcheck_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// fixtureWant maps every corpus file to the invariant its verification
// must name ("" = the fixture must verify clean). TestFixtureCorpus fails
// if a testdata file is missing from this table or vice versa, so the
// corpus and expectations cannot drift apart.
var fixtureWant = map[string]string{
	"ok_minimal.json":        "",
	"pagemap_overlap.json":   imgcheck.InvPagemapOrder,
	"pagemap_unsorted.json":  imgcheck.InvPagemapOrder,
	"pagemap_flags.json":     imgcheck.InvPagemapFlags,
	"pagemap_unmapped.json":  imgcheck.InvPagemapMapped,
	"zero_with_bytes.json":   imgcheck.InvPagesBytes,
	"truncated_pages.json":   imgcheck.InvPagesBytes,
	"cyclic_in_parent.json":  imgcheck.InvInParent,
	"orphan_in_parent.json":  imgcheck.InvInParent,
	"skipped_in_parent.json": imgcheck.InvInParent,
	"truncated_core.json":    imgcheck.InvImageDecode,
	"missing_core.json":      imgcheck.InvMissingImage,
	"exited_live.json":       imgcheck.InvExitedTID,
	"exited_core.json":       imgcheck.InvExitedTID,
	"pc_unmapped.json":       imgcheck.InvCorePC,
	"sx86_highregs.json":     imgcheck.InvCoreRegs,
	"stack_inverted.json":    imgcheck.InvCoreStack,
	"vma_overlap.json":       imgcheck.InvVMAOrder,
	"vma_huge.json":          imgcheck.InvVMAOrder,
	"dedup_retired.json":     imgcheck.InvImageDecode,
}

// loadFixture parses one corpus file: a JSON array of CRIT documents
// ordered oldest to newest, each encoded back to a binary image set.
func loadFixture(t testing.TB, path string) []*criu.ImageDir {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var docs []json.RawMessage
	if err := json.Unmarshal(data, &docs); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	dirs := make([]*criu.ImageDir, len(docs))
	for i, raw := range docs {
		dirs[i], err = criu.EncodeJSON(raw)
		if err != nil {
			t.Fatalf("%s doc %d: %v", path, i, err)
		}
	}
	return dirs
}

// TestFixtureCorpus verifies every deliberately-broken image set in
// testdata is rejected with the invariant it seeds — the same dispatch
// dapper-crit verify uses (one set → Verify, several → VerifyChain).
func TestFixtureCorpus(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		seen[name] = true
		want, ok := fixtureWant[name]
		if !ok {
			t.Errorf("testdata/%s has no entry in fixtureWant", name)
			continue
		}
		t.Run(strings.TrimSuffix(name, ".json"), func(t *testing.T) {
			dirs := loadFixture(t, filepath.Join("testdata", name))
			var err error
			if len(dirs) == 1 {
				err = imgcheck.Verify(dirs[0])
			} else {
				err = imgcheck.VerifyChain(dirs)
			}
			if want == "" {
				if err != nil {
					t.Fatalf("want clean, got: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want violation of %q, got clean", want)
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error does not name invariant %q: %v", want, err)
			}
		})
	}
	for name := range fixtureWant {
		if !seen[name] {
			t.Errorf("fixtureWant lists %s but testdata does not contain it", name)
		}
	}
}

// The property-test program dirties data, heap (via arrays), TLS, and
// stack on both ISAs; equivalence points at function entry let the
// monitor pause it mid-run.
const probeProgram = `
var data[4096] int;
var sum int;
func churn(round int) {
	var i int;
	var local[32] int;
	for i = 0; i < 128; i = i + 1 {
		data[(round * 67 + i) % 4096] = round + i;
		local[i % 32] = data[(round * 31) % 4096];
		sum = sum + local[i % 32];
	}
}
func main() {
	var round int;
	for round = 0; round < 64; round = round + 1 {
		churn(round);
	}
	printi(sum);
}`

// pauseProbe compiles probeProgram, runs it for a while on the given
// arch, and pauses it at an equivalence point, ready to dump.
func pauseProbe(t *testing.T, arch isa.Arch) (*kernel.Kernel, *kernel.Process, *monitor.Monitor, *stackmap.Metadata) {
	t.Helper()
	pair, err := compiler.Compile(probeProgram)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Cores: 2, Quantum: 97})
	p, err := k.StartProcess(pair.ByArch(arch).LoadSpec("/bin/probe." + arch.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunBudget(p, 1<<16); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(k, p, pair.Meta)
	if err := mon.Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	return k, p, mon, pair.Meta
}

// TestDumpSatisfiesVerify is the property test for the dump paths: every
// image set the existing vanilla and lazy dump paths produce must pass
// static verification on both ISAs.
func TestDumpSatisfiesVerify(t *testing.T) {
	for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
		for _, lazy := range []bool{false, true} {
			name := arch.String()
			if lazy {
				name += "/lazy"
			} else {
				name += "/vanilla"
			}
			t.Run(name, func(t *testing.T) {
				_, p, _, _ := pauseProbe(t, arch)
				dir, err := criu.Dump(p, criu.DumpOpts{Lazy: lazy})
				if err != nil {
					t.Fatal(err)
				}
				if err := imgcheck.Verify(dir); err != nil {
					t.Fatalf("dump output fails verification: %v", err)
				}
			})
		}
	}
}

// TestChainSatisfiesVerify: incremental dump chains pass VerifyChain,
// each link passes VerifyLink, and the flattened result passes Verify —
// the dump/incremental oracle for the chain checks.
func TestChainSatisfiesVerify(t *testing.T) {
	k, p, mon, _ := pauseProbe(t, isa.SX86)
	base, err := criu.Dump(p, criu.DumpOpts{TrackMem: true})
	if err != nil {
		t.Fatal(err)
	}
	chain := []*criu.ImageDir{base}
	for r := 1; r <= 3; r++ {
		if err := mon.ResumeLocal(); err != nil {
			t.Fatalf("resume %d: %v", r, err)
		}
		alive, err := k.RunBudget(p, 1<<16)
		if err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
		if !alive {
			t.Fatalf("program finished before round %d", r)
		}
		if err := mon.Pause(1 << 20); err != nil {
			t.Fatalf("pause %d: %v", r, err)
		}
		delta, err := criu.Dump(p, criu.DumpOpts{Parent: chain[len(chain)-1], TrackMem: true})
		if err != nil {
			t.Fatalf("delta %d: %v", r, err)
		}
		chain = append(chain, delta)
	}
	for i, dir := range chain {
		if err := imgcheck.VerifyLink(dir); err != nil {
			t.Fatalf("link %d fails VerifyLink: %v", i, err)
		}
	}
	if err := imgcheck.VerifyChain(chain); err != nil {
		t.Fatalf("chain fails VerifyChain: %v", err)
	}
	flat, err := criu.FlattenChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := imgcheck.Verify(flat); err != nil {
		t.Fatalf("flattened chain fails Verify: %v", err)
	}
}

// TestVerifyMeta: compiler-produced metadata passes, and a site PC moved
// outside its function's unified address range is caught as
// symbol-align.
func TestVerifyMeta(t *testing.T) {
	pair, err := compiler.Compile(probeProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := imgcheck.VerifyMeta(pair.Meta); err != nil {
		t.Fatalf("compiler metadata fails VerifyMeta: %v", err)
	}
	// Corrupt one entry site: point its SX86 trap PC past the end of the
	// function, as a mis-linked binary pair would.
	for _, f := range pair.Meta.Funcs {
		if f.EntrySite == nil {
			continue
		}
		f.EntrySite.PCs[stackmap.ArchIdx(isa.SX86)].TrapPC = f.Addr + f.Size + 0x100
		break
	}
	err = imgcheck.VerifyMeta(pair.Meta)
	if err == nil {
		t.Fatal("corrupted metadata passed VerifyMeta")
	}
	if !strings.Contains(err.Error(), imgcheck.InvSymbolAlign) {
		t.Fatalf("error does not name %q: %v", imgcheck.InvSymbolAlign, err)
	}
}
