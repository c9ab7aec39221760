package workloads_test

import (
	"bytes"
	"compress/flate"
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgproto"
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
// out as word planes.
func TestCodecFormChoice(t *testing.T) {
	wantWords := map[string]bool{"rediska": true, "is": true}
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

			var plain bytes.Buffer
			zw, err := flate.NewWriter(&plain, flate.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := zw.Write(blob); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}

			wire, used, err := criu.CodecFlate.Compress(blob)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d-byte image: plain DEFLATE %d bytes, chosen form %s %d bytes", len(blob), plain.Len(), used, len(wire))
			if limit := plain.Len() + plain.Len()/50; len(wire) > limit {
				t.Errorf("%s form is %d bytes, plain DEFLATE %d: the choice costs more than 2 %%", used, len(wire), plain.Len())
			}
			if got := used == imgproto.CodecFlateWords; got != wantWords[w.Name] {
				t.Errorf("encoded as %s; word planes expected: %v", used, wantWords[w.Name])
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
