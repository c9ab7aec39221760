package workloads_test

import (
	"bytes"
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/imgproto/imgprototest"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestCodecFormChoice guards every other image against paying for
// rediska's: CodecFlate picks a form per payload from a sample
// (docs/transport.md, "Choosing the form"), and on the mid-run class-A
// image of each of the 13 workloads what it picks must be no larger than
// plain level-1 DEFLATE of the same bytes — the form every payload got
// before the trial existed — by more than 2 %, and must round-trip.
// Rediska is loaded with 12,000 keys, the benchmark's size, so its image
// is over the trial's floor; it and `is`, the two integer heaps, must go
// out as word planes — and, with the lanes nobody uses left out, no
// larger than DEFLATE of all eight planes, the form's layout before it
// had a lane map. Rediska's heap of pointers a stride apart must store
// some lane-blocks as word differences, and `is`, whose words the
// differences would not empty, none.
func TestCodecFormChoice(t *testing.T) {
	wantWords := map[string]bool{"rediska": true, "is": true}
	wantDiffs := map[string]bool{"rediska": true}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			pair, err := workloads.CompilePair(w, workloads.ClassA)
			if err != nil {
				t.Fatal(err)
			}
			node := cluster.NewNode(cluster.XeonSpec)
			node.Install(w.Name, pair)
			p, err := node.Start(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			if w.Kind == workloads.Server {
				if w.Name == "rediska" {
					p.PushInput(workloads.RediskaLoad(12000))
				}
				drainRediska(t, node, p)
			} else {
				ref, err := node.Start(w.Name)
				if err != nil {
					t.Fatal(err)
				}
				if err := node.K.Run(ref); err != nil {
					t.Fatal(err)
				}
				if alive, err := node.K.RunBudget(p, ref.VCycles/2); err != nil || !alive {
					t.Fatalf("run to the half-way point: alive %v, err %v", alive, err)
				}
			}
			if err := monitor.New(node.K, p, pair.Meta).Pause(1 << 20); err != nil {
				t.Fatal(err)
			}
			dir, err := criu.Dump(p, criu.DumpOpts{})
			if err != nil {
				t.Fatal(err)
			}
			blob := dir.Marshal()

			plain := len(imgprototest.Deflate(blob))
			wire, used, err := criu.CodecFlate.Compress(blob)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d-byte image: plain DEFLATE %d bytes, chosen form %s %d bytes", len(blob), plain, used, len(wire))
			if limit := plain + plain/50; len(wire) > limit {
				t.Errorf("%s form is %d bytes, plain DEFLATE %d: the choice costs more than 2 %%", used, len(wire), plain)
			}
			if got := used == imgproto.CodecFlateWords; got != wantWords[w.Name] {
				t.Errorf("encoded as %s; word planes expected: %v", used, wantWords[w.Name])
			}
			if used == imgproto.CodecFlateWords {
				planes := len(imgprototest.Deflate(imgprototest.Planes(blob)))
				t.Logf("DEFLATE of all eight planes %d bytes, of the occupied lanes and their map %d", planes, len(wire))
				if len(wire) > planes {
					t.Errorf("%d bytes with the lane map, %d without: leaving lanes out made the payload larger", len(wire), planes)
				}
				lanemap, deltamap, _ := imgprototest.Lanes(blob, 0)
				diffs := 0
				for b := range lanemap {
					diffs += int(deltamap[b/8] >> (b % 8) & 1)
				}
				t.Logf("%d of %d lane-blocks stored as word differences", diffs, len(lanemap))
				if got := diffs > 0; got != wantDiffs[w.Name] {
					t.Errorf("%d lane-blocks of differences; some expected: %v", diffs, wantDiffs[w.Name])
				}
			}
			back, err := used.Decompress(wire, len(blob))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, blob) {
				t.Error("round trip changed the image")
			}
		})
	}
}
