package cluster_test

import (
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/monitor"
)

// TestMigrateRefusesVersionSkew: version skew is judged once, by the
// restore that would install the image, against the binary the destination
// actually has. A destination whose registered build is not the one the
// process runs (a stale or mismatched deployment) is refused at
// criu.restore with a named updatecheck invariant, leaves nothing live and
// hands the source back to resume; a skewed source provider with the right
// build on the destination is no skew at all, and the migration completes.
func TestMigrateRefusesVersionSkew(t *testing.T) {
	for _, tc := range []struct {
		name       string
		dstSpec    cluster.NodeSpec
		skewSource bool // else the destination's provider is skewed
	}{
		{name: "skewed-destination", dstSpec: cluster.XeonSpec},
		{name: "skewed-destination-x86-arm", dstSpec: cluster.PiSpec},
		{name: "skewed-source", dstSpec: cluster.XeonSpec, skewSource: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			xeon, _, pair := setup(t)
			want := nativeOut(t, xeon)
			dst := cluster.NewNode(tc.dstSpec)
			dst.Install("work", pair)
			p, err := xeon.Start("work")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := xeon.K.RunBudget(p, 200_000); err != nil {
				t.Fatal(err)
			}
			// Silently swap the deployed binary for a different build: the
			// classic version-skew deployment bug.
			skew, err := compiler.Compile(`func main() { printi(1); }`)
			if err != nil {
				t.Fatal(err)
			}
			skewed := dst
			if tc.skewSource {
				skewed = xeon
			}
			for path, bin := range skewed.Binaries {
				skewed.Binaries.Register(path, skew.ByArch(bin.Arch))
			}

			res, err := cluster.Migrate(xeon, dst, p, pair.Meta, cluster.MigrateOpts{})
			if tc.skewSource {
				if err != nil {
					t.Fatalf("migration to the right build refused: %v", err)
				}
				defer res.Close()
				if err := dst.K.Run(res.Proc); err != nil {
					t.Fatal(err)
				}
				if got := p.ConsoleString() + res.Proc.ConsoleString(); got != want {
					t.Errorf("migrated output %q, want %q", got, want)
				}
				return
			}
			if err == nil {
				res.Close()
				t.Fatal("migration restored a version-skewed image")
			}
			if msg := err.Error(); !strings.Contains(msg, "criu.restore") || !strings.Contains(msg, "updatecheck: image-") {
				t.Errorf("want criu.restore's updatecheck image-* refusal, got: %v", err)
			}
			if n := dst.K.Live(); n != 0 {
				t.Errorf("destination kernel holds %d processes after the refusal, want 0", n)
			}
			if err := monitor.New(xeon.K, p, pair.Meta).ResumeLocal(); err != nil {
				t.Fatalf("resume the source after the refusal: %v", err)
			}
			if err := xeon.K.Run(p); err != nil {
				t.Fatal(err)
			}
			if got := p.ConsoleString(); got != want {
				t.Errorf("resumed source printed %q, want %q", got, want)
			}
		})
	}
}
