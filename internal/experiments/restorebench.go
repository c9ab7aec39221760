package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// restoreDBs are the rediska database sizes of the small/mid/large rows.
// The large row is sized so the raw image spans several wire segments
// (>4 MiB): the overlap gate below demands a multi-segment stream, since
// a single-segment transfer cannot overlap receive with install.
var restoreDBs = []struct {
	label string
	keys  uint64
}{
	{"small", 100},
	{"mid", 2000},
	{"large", 24000},
}

// restoreOnce loads db keys into a fresh rediska pair, migrates with or
// without the streamed restore, and fingerprints the restored address
// space before the process runs again — the byte-identity witness across
// modes. The returned console output covers a query sweep on the restored
// server.
func restoreOnce(c workloads.Class, db uint64, stream bool) (_ *cluster.Breakdown, _ *obs.Report, _ []byte, _ string, err error) {
	w, err := workloads.Get("rediska")
	if err != nil {
		return nil, nil, nil, "", err
	}
	xeon, pi, err := newPairOfNodes(w, c)
	if err != nil {
		return nil, nil, nil, "", err
	}
	pair, err := workloads.CompilePair(w, c)
	if err != nil {
		return nil, nil, nil, "", err
	}
	p, err := xeon.Start(w.Name)
	if err != nil {
		return nil, nil, nil, "", err
	}
	p.PushInput(workloads.RediskaLoad(db))
	for i := 0; i < 10_000_000; i++ {
		st, err := xeon.K.Step(p)
		if err != nil {
			return nil, nil, nil, "", err
		}
		if st.Blocked == 1 && p.PendingInput() == 0 {
			break
		}
	}
	p.TakeOutput()
	reg := obs.New()
	opts := cluster.MigrateOpts{
		Obs:           reg,
		Codec:         criu.CodecFlate,
		StreamRestore: stream,
	}
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, opts)
	if err != nil {
		return nil, nil, nil, "", err
	}
	defer func() {
		if cerr := res.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	fp := restoreFingerprint(res.Proc.AS)
	// Query every 10th key on the restored server: the answers must match
	// across modes, an end-to-end check on top of the page fingerprint.
	for k := uint64(0); k < db; k += 10 {
		res.Proc.PushInput(workloads.RediskaGet(1000000 + 7*k))
	}
	res.Proc.CloseInput()
	if err := pi.K.Run(res.Proc); err != nil {
		return nil, nil, nil, "", err
	}
	return &res.Breakdown, reg.Report(), fp, res.Proc.ConsoleString(), nil
}

// restoreFingerprint serializes every populated page of the address
// space in index order — two restores landed the same memory iff their
// fingerprints are byte-equal.
func restoreFingerprint(as *mem.AddressSpace) []byte {
	idxs := as.PopulatedPages()
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var buf bytes.Buffer
	for _, idx := range idxs {
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], idx)
		buf.Write(hdr[:])
		data, _ := as.PageData(idx)
		buf.Write(data)
	}
	return buf.Bytes()
}

// Restore compares the serial transfer (receive everything, then
// restore) against the streaming restore pipeline (decode, verify, and
// install pages while later segments are still on the wire) on rediska
// at three database sizes. The generator hard-fails if any mode changes
// the restored bytes or query answers, if the overlap never engages on
// the large image, or if streaming fails to beat the serial modeled
// downtime there.
func Restore(c workloads.Class) (*Table, error) {
	t := &Table{
		ID:        "restore",
		Title:     "restore pipeline: serial vs streamed (rediska, flate wire codec)",
		Header:    []string{"case", "mode", "images(KiB)", "copy(ms)", "restore(ms)", "downtime(ms)", "segments", "batches"},
		Telemetry: map[string]*obs.Report{},
	}
	for _, db := range restoreDBs {
		label := fmt.Sprintf("rediska-%s-%dkeys", db.label, db.keys)
		var serial *cluster.Breakdown
		var goldFP []byte
		var goldOut string
		for _, stream := range []bool{false, true} {
			mode := "serial"
			if stream {
				mode = "streamed"
			}
			bd, rep, fp, out, err := restoreOnce(c, db.keys, stream)
			if err != nil {
				return nil, fmt.Errorf("restore %s %s: %w", label, mode, err)
			}
			if !stream {
				serial, goldFP, goldOut = bd, fp, out
			} else {
				if !bytes.Equal(fp, goldFP) {
					return nil, fmt.Errorf("restore %s %s: restored memory differs from the serial transfer", label, mode)
				}
				if out != goldOut {
					return nil, fmt.Errorf("restore %s %s: query answers differ from the serial transfer", label, mode)
				}
			}
			t.Rows = append(t.Rows, []string{
				label, mode, kb(bd.ImageBytes), ms(bd.Copy), ms(bd.Restore), ms(bd.Downtime),
				fmt.Sprintf("%d", bd.StreamSegments), fmt.Sprintf("%d", bd.StreamBatches),
			})
			t.Telemetry[label+"/"+mode] = rep
			if db.label == "large" && stream {
				if bd.StreamSegments < 2 || bd.StreamBatches < 2 {
					return nil, fmt.Errorf("restore %s %s: overlap never engaged (segments=%d batches=%d, want both >= 2)",
						label, mode, bd.StreamSegments, bd.StreamBatches)
				}
				if bd.Downtime >= serial.Downtime {
					return nil, fmt.Errorf("restore %s %s: modeled downtime %v did not beat serial %v",
						label, mode, bd.Downtime, serial.Downtime)
				}
			}
		}
	}
	t.Notes = append(t.Notes,
		"serial downtime = checkpoint+recode+copy+restore; streamed downtime replaces copy+restore with max(copy, restore)",
		"segments/batches prove the overlap: pages were installing while later wire segments were still arriving",
		"both modes must land byte-identical memory and identical query answers; the generator hard-fails otherwise")
	return t, nil
}
