package criu_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/isa"
)

// chainInvariants are the names a chain refusal may carry.
var chainInvariants = []string{
	imgcheck.InvMissingImage, imgcheck.InvImageDecode, imgcheck.InvVMAOrder, imgcheck.InvPagemapOrder,
	imgcheck.InvPagemapFlags, imgcheck.InvPagemapMapped, imgcheck.InvPagesBytes, imgcheck.InvInParent,
	imgcheck.InvCoreRegs, imgcheck.InvCoreStack, imgcheck.InvCorePC, imgcheck.InvCoreTID, imgcheck.InvDeltaChain,
}

// chainVerdicts holds the verifier and the flattener to one verdict on a
// chain: VerifyChain accepts iff FlattenChain succeeds, every refusal names
// an invariant, and when want is set both name that one. It reports
// whether the chain was accepted.
func chainVerdicts(t *testing.T, label string, chain []*criu.ImageDir, want string) bool {
	t.Helper()
	verr := imgcheck.VerifyChain(chain)
	flat, ferr := criu.FlattenChain(chain)
	if (verr == nil) != (ferr == nil) {
		t.Errorf("%s: VerifyChain says %v, FlattenChain %v", label, verr, ferr)
	}
	for who, err := range map[string]error{"VerifyChain": verr, "FlattenChain": ferr} {
		if err == nil {
			continue
		}
		named := false
		for _, inv := range chainInvariants {
			named = named || strings.Contains(err.Error(), "imgcheck: "+inv+": ")
		}
		if !named {
			t.Errorf("%s: %s's refusal names no invariant: %v", label, who, err)
		}
		if want != "" && !strings.Contains(err.Error(), "imgcheck: "+want+": ") {
			t.Errorf("%s: %s's refusal does not name %s: %v", label, who, want, err)
		}
	}
	if want != "" && verr == nil && ferr == nil {
		t.Errorf("%s: accepted, want a refusal naming %s", label, want)
	}
	if ferr == nil {
		if err := imgcheck.Verify(flat); err != nil {
			t.Errorf("%s: the flattened chain fails Verify: %v", label, err)
		}
	}
	return verr == nil && ferr == nil
}

// fixtureChains loads every multi-document file of imgcheck's corpus.
func fixtureChains(t testing.TB) map[string][]*criu.ImageDir {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "imgcheck", "testdata", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no imgcheck corpus: %v", err)
	}
	out := make(map[string][]*criu.ImageDir)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var docs []json.RawMessage
		if err := json.Unmarshal(data, &docs); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(docs) < 2 {
			continue
		}
		chain := make([]*criu.ImageDir, len(docs))
		for i, raw := range docs {
			if chain[i], err = criu.EncodeJSON(raw); err != nil {
				t.Fatalf("%s doc %d: %v", path, i, err)
			}
		}
		out[filepath.Base(path)] = chain
	}
	return out
}

// editLink returns a copy of the chain whose link i has had its page set
// edited: the other files by reference, pagemap and pages stored afresh,
// so the link stays structurally sound whatever the edit.
func editLink(t *testing.T, chain []*criu.ImageDir, i int, edit func(ps *criu.PageSet)) []*criu.ImageDir {
	t.Helper()
	ps, err := criu.LoadPageSet(chain[i])
	if err != nil {
		t.Fatal(err)
	}
	edit(ps)
	link := criu.NewImageDir()
	for _, name := range chain[i].Names() {
		if name != image.PagemapName && name != image.PagesName {
			raw, _ := chain[i].Get(name)
			link.Put(name, raw)
		}
	}
	ps.Store(link)
	if err := imgcheck.VerifyLink(link); err != nil {
		t.Fatalf("edited link %d is not VerifyLink-clean: %v", i, err)
	}
	out := append([]*criu.ImageDir(nil), chain...)
	out[i] = link
	return out
}

// TestChainVerifierFlattenerAgreement: the verifier and the flattener used
// to carry a model each of how a link's page resolves against older links,
// and they disagreed — a page that is data in link 0, unmentioned by link 1
// and in_parent in link 2 passed VerifyChain and then failed FlattenChain
// with an unnamed error, after both of a migration's verify stages. Both
// are loops over image.FoldLink now; this pins that they stay one verdict,
// over imgcheck's multi-link corpus, dumped chains on both ISAs with and
// without XOR deltas, and hand-damaged copies of a dumped delta chain.
func TestChainVerifierFlattenerAgreement(t *testing.T) {
	fixtures := fixtureChains(t)
	for name, chain := range fixtures {
		for i, link := range chain {
			if err := imgcheck.VerifyLink(link); err != nil {
				t.Errorf("%s link %d fails VerifyLink on its own: %v", name, i, err)
			}
		}
		want := ""
		if name == "skipped_in_parent.json" {
			want = imgcheck.InvInParent
		}
		chainVerdicts(t, name, chain, want)
	}
	if fixtures["skipped_in_parent.json"] == nil {
		t.Error("the corpus has no skipped_in_parent.json")
	}

	var delta []*criu.ImageDir
	for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
		plain, _ := buildChain(t, sparseWriter, arch, 3, 7_000)
		if !chainVerdicts(t, "plain chain on "+arch.String(), plain, "") {
			t.Errorf("dumped plain chain on %v refused", arch)
		}
		delta, _, _ = buildDeltaChain(t, denseWriter, arch, 2, 9_000)
		if !chainVerdicts(t, "delta chain on "+arch.String(), delta, "") {
			t.Errorf("dumped delta chain on %v refused", arch)
		}
	}

	// Pages of the three-link delta chain to damage: one link 1 ships as a
	// delta, one link 1 leaves in_parent, and one link 2 leaves in_parent
	// that link 1 mentions too.
	sets := make([]*criu.PageSet, len(delta))
	for i, link := range delta {
		var err error
		if sets[i], err = criu.LoadPageSet(link); err != nil {
			t.Fatal(err)
		}
	}
	pick := func(what string, of map[uint64]bool, ok func(a uint64) bool) uint64 {
		for a := range of {
			if ok(a) {
				return a
			}
		}
		t.Fatalf("the delta chain has no %s", what)
		return 0
	}
	rootData := func(a uint64) bool { return sets[0].Class(a) == image.PageData }
	deltaPg := pick("delta page in link 1 over root data", sets[1].DeltaPages, rootData)
	parentPg := pick("in_parent page in link 1 over root data", sets[1].ParentPages, rootData)
	midPg := pick("in_parent page in link 2 that link 1 mentions", sets[2].ParentPages,
		func(a uint64) bool { return sets[1].Class(a) != image.PageAbsent })
	drop := func(a uint64) func(*criu.PageSet) {
		return func(ps *criu.PageSet) { ps.DropRange(a, a+1) }
	}

	chainVerdicts(t, "delta at the root", editLink(t, delta, 0, func(ps *criu.PageSet) {
		ps.DeltaPages[deltaPg] = true
	}), imgcheck.InvDeltaChain)
	chainVerdicts(t, "delta over lazy", editLink(t, delta, 0, func(ps *criu.PageSet) {
		delete(ps.Pages, deltaPg)
		ps.LazyPages[deltaPg] = true
	}), imgcheck.InvDeltaChain)
	chainVerdicts(t, "delta over an unmentioned page", editLink(t, delta, 0, drop(deltaPg)), imgcheck.InvDeltaChain)
	chainVerdicts(t, "in_parent over an unmentioned page", editLink(t, delta, 0, drop(parentPg)), imgcheck.InvInParent)
	chainVerdicts(t, "page dropped from a middle link", editLink(t, delta, 1, drop(midPg)), imgcheck.InvInParent)
}
