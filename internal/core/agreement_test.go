package core_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/stackmap"
	"github.com/dapper-sim/dapper/internal/updatecheck"
	"github.com/dapper-sim/dapper/internal/workloads"
)

var refusalNames = []string{
	stackmap.RefusePC, stackmap.RefuseMeta, stackmap.RefuseBounds, stackmap.RefuseRetAddr, stackmap.RefuseDepth,
}

// agree holds the verifier and the rewriter to one account of an image's
// stacks under one binary's stack maps. Thread by thread, for every thread
// the rewriter has a walk for — one at a trap PC; anything else it refuses
// as not parked, while the verifier checks a mid-run PC alone and walks on
// from a resume PC, where restore leaves a thread — a stack refusal from
// either is the same named refusal from the other, and what the verifier
// passes RewriteThread unwinds. Threads whose stack holds pages with no
// local content are skipped: there the verifier gives no verdict by
// design. It returns how many threads it compared.
func agree(t *testing.T, label string, dir *criu.ImageDir, bin *compiler.Binary) (compared int) {
	t.Helper()
	v := image.Open(dir)
	if v.Fault(image.InventoryName, image.PagemapName) != nil || v.Inventory.Arch != bin.Arch {
		return 0
	}
	report := updatecheck.CheckImage(v, bin)
	if err := imgcheck.VerifyTargetBinary(dir, bin); (err == nil) != (len(report.Violations) == 0) {
		t.Errorf("%s: VerifyTargetBinary says %v, the report it wraps %v", label, err, report.Err())
	}
	side := core.Side{Arch: bin.Arch, Meta: bin.Meta}
threads:
	for _, tid := range v.Inventory.TIDs {
		c, err := v.Core(tid)
		if err != nil || c.Arch != bin.Arch {
			continue
		}
		// RewriteThread edits the set it is given: a fresh one per thread.
		ps, err := image.LoadPageSet(dir)
		if err != nil {
			return compared
		}
		for a := c.StackLow / mem.PageSize * mem.PageSize; a < c.StackHigh; a += mem.PageSize {
			switch ps.Class(a) {
			case image.PageLazy, image.PageParent, image.PageDelta:
				continue threads
			}
		}
		compared++
		verifier := ""
		for _, viol := range report.Violations {
			if !strings.HasPrefix(viol.Detail, fmt.Sprintf("thread %d: ", tid)) {
				continue
			}
			for _, name := range refusalNames {
				if strings.HasSuffix(viol.Detail, "("+name+")") {
					verifier = name
				}
			}
		}
		rewriter := ""
		_, err = core.RewriteThread(c, ps, side, side)
		var refusal *stackmap.Refusal
		if errors.As(err, &refusal) {
			rewriter = refusal.Name
		}
		if rewriter != stackmap.RefusePC && rewriter != verifier {
			t.Errorf("%s thread %d: verifier says %q, rewriter %q (%v; %v)", label, tid, verifier, rewriter, report.Err(), err)
		}
	}
	return compared
}

// pausedImage runs a binary to a pause and dumps it. ok is false if the
// program finished first.
func pausedImage(t *testing.T, bin *compiler.Binary, meta *stackmap.Metadata, path string, budget uint64) (dir *criu.ImageDir, ok bool) {
	t.Helper()
	k := kernel.New(kernel.Config{Cores: 4, Quantum: 97})
	p, err := k.StartProcess(bin.LoadSpec(path))
	if err != nil {
		t.Fatal(err)
	}
	// A server blocks on its empty input queue: that is a pause point too.
	if alive, err := k.RunBudget(p, budget); err != nil && !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatal(err)
	} else if !alive {
		return nil, false
	}
	if err := monitor.New(k, p, meta).Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	if dir, err = criu.Dump(p, criu.DumpOpts{}); err != nil {
		t.Fatal(err)
	}
	return dir, true
}

// TestVerifierRewriterAgreement is the property the verifier's "mirrors
// RewriteThread's unwind" comment used to promise and nothing checked. Both
// run stackmap.Unwind now; this pins that they keep reporting it alike,
// over three corpora: every workload paused mid-run on both ISAs (where
// the verifier must accept and the rewrite to the other ISA must go
// through), one good image against every deliberately broken binary of the
// updatecheck corpus, and every image of the imgcheck corpus.
func TestVerifierRewriterAgreement(t *testing.T) {
	for _, w := range workloads.All() {
		pair, err := workloads.CompilePair(w, workloads.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
			label := fmt.Sprintf("%s/%v", w.Name, arch)
			bin, other := pair.ByArch(arch), pair.ByArch(arch.Other())
			dir, ok := pausedImage(t, bin, pair.Meta, compiler.ExePath(w.Name, arch), 40_000)
			if !ok {
				t.Errorf("%s: finished inside the budget", label)
				continue
			}
			if err := imgcheck.VerifyTargetBinary(dir, bin); err != nil {
				t.Errorf("%s: verifier refuses a fresh dump: %v", label, err)
			}
			if agree(t, label, dir, bin) == 0 {
				t.Errorf("%s: no thread compared", label)
			}
			v := image.Open(dir)
			ps, err := v.PageSet()
			if err != nil {
				t.Fatal(err)
			}
			for _, tid := range v.Inventory.TIDs {
				c, _ := v.Core(tid)
				if _, err := core.RewriteThread(c, ps, core.Side{Arch: arch, Meta: bin.Meta}, core.Side{Arch: arch.Other(), Meta: other.Meta}); err != nil {
					t.Errorf("%s thread %d: the verifier accepted what the rewriter refuses: %v", label, tid, err)
				}
			}
		}
	}

	// The broken-binary corpus is one base program (SARM) with one defect
	// per file; global-moved.old is that program untouched.
	corpus := filepath.Join("..", "updatecheck", "testdata")
	load := func(path string) *compiler.Binary {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := compiler.UnmarshalBinary(blob)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := load(filepath.Join(corpus, "global-moved.old.delf"))
	baseDir, ok := pausedImage(t, base, base.Meta, "/bin/base.sarm", 400)
	if !ok {
		t.Fatal("the corpus's base program finished inside the budget")
	}
	delfs, _ := filepath.Glob(filepath.Join(corpus, "*.delf"))
	refused := 0
	for _, path := range delfs {
		broken := load(path)
		if agree(t, filepath.Base(path), baseDir, broken) == 0 {
			t.Errorf("%s: no thread compared", path)
		}
		if imgcheck.VerifyTargetBinary(baseDir, broken) != nil {
			refused++
		}
	}
	if len(delfs) < 10 || refused == 0 {
		t.Errorf("%d binaries, %d of which refuse the base image: the corpus exercises no refusal", len(delfs), refused)
	}

	// The invalid-image corpus: structurally broken sets, whatever their
	// threads look like to a real binary's stack maps.
	jsons, _ := filepath.Glob(filepath.Join("..", "imgcheck", "testdata", "*.json"))
	if len(jsons) < 10 {
		t.Errorf("imgcheck corpus holds %d files", len(jsons))
	}
	w := buildWorld(t, "fib", fibSrc)
	for _, path := range jsons {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var docs []json.RawMessage
		if err := json.Unmarshal(data, &docs); err != nil {
			t.Fatal(err)
		}
		for i, raw := range docs {
			dir, err := criu.EncodeJSON(raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, bin := range []*compiler.Binary{w.pair.X86, w.pair.ARM} {
				agree(t, fmt.Sprintf("%s[%d]/%v", filepath.Base(path), i, bin.Arch), dir, bin)
			}
		}
	}
}
