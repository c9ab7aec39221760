package imgcheck_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/imgcheck"
)

// feedMeta loads a fixture and feeds every file except pages.img into a
// fresh StreamVerifier — the state a streaming restore is in the moment
// pages.img is announced. It returns the verifier and the declared
// payload size (the real pages.img length).
func feedMeta(t *testing.T, fixture string) (*imgcheck.StreamVerifier, int) {
	t.Helper()
	dirs := loadFixture(t, filepath.Join("testdata", fixture))
	if len(dirs) != 1 {
		t.Fatalf("%s: want a single-image fixture, got %d", fixture, len(dirs))
	}
	sv := imgcheck.NewStreamVerifier()
	var pagesLen int
	for _, name := range dirs[0].Names() {
		data, _ := dirs[0].Get(name)
		if name == "pages.img" {
			pagesLen = len(data)
			continue
		}
		sv.File(name, data)
	}
	return sv, pagesLen
}

// TestStreamVerifierAcceptsValidMeta: a clean image's metadata plus the
// true declared payload size verifies before any payload byte lands.
func TestStreamVerifierAcceptsValidMeta(t *testing.T) {
	sv, pagesLen := feedMeta(t, "ok_minimal.json")
	if err := sv.VerifyMeta(pagesLen); err != nil {
		t.Fatalf("clean metadata rejected: %v", err)
	}
}

// TestStreamVerifierDeclaredSizeMismatch: the InvPagesBytes accounting
// runs against the size the wire announced, so a payload that disagrees
// with the pagemap is refused before it is received.
func TestStreamVerifierDeclaredSizeMismatch(t *testing.T) {
	sv, pagesLen := feedMeta(t, "ok_minimal.json")
	err := sv.VerifyMeta(pagesLen + 4096)
	if err == nil {
		t.Fatal("oversized declared payload accepted")
	}
	if !strings.Contains(err.Error(), imgcheck.InvPagesBytes) {
		t.Errorf("error %v does not name %s", err, imgcheck.InvPagesBytes)
	}
}

// TestStreamVerifierCatchesMetaInvariants: metadata-only violations are
// caught at the pre-payload checkpoint, exactly as VerifyLink would
// catch them on the whole image.
func TestStreamVerifierCatchesMetaInvariants(t *testing.T) {
	cases := []struct {
		fixture string
		want    string
	}{
		{"pagemap_unsorted.json", imgcheck.InvPagemapOrder},
		{"pagemap_overlap.json", imgcheck.InvPagemapOrder},
		{"vma_overlap.json", imgcheck.InvVMAOrder},
		{"dedup_retired.json", imgcheck.InvImageDecode},
	}
	for _, tc := range cases {
		sv, pagesLen := feedMeta(t, tc.fixture)
		err := sv.VerifyMeta(pagesLen)
		if err == nil {
			t.Errorf("%s: accepted before payload", tc.fixture)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not name %s", tc.fixture, err, tc.want)
		}
	}
}
