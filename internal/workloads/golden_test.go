package workloads_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/workloads"
)

var updateGolden = flag.Bool("update-guest-golden", false, "rewrite testdata/guest_golden.json from this run")

const guestGoldenPath = "testdata/guest_golden.json"

// guestGolden is everything a native class-S run leaves behind that the
// modeled columns of the experiment tables are computed from: what the
// guest printed and replied, how many cycles each thread and the
// scheduler's virtual clock counted, how many scheduler passes and
// syscalls it took to get there, and every resident byte at exit.
type guestGolden struct {
	Console      string   `json:"console"`
	Output       string   `json:"output_sha256,omitempty"`
	ExitCode     int      `json:"exit_code"`
	ThreadCycles []uint64 `json:"thread_cycles"`
	VCycles      uint64   `json:"vcycles"`
	Steps        int      `json:"steps"`
	Syscalls     uint64   `json:"syscalls"`
	Pages        int      `json:"resident_pages"`
	Memory       string   `json:"memory_sha256"`
}

// serverScript is the fixed request stream a server guest answers before
// its input closes.
func serverScript(name string) [][]byte {
	var out [][]byte
	switch name {
	case "rediska":
		out = append(out, workloads.RediskaLoad(96))
		for i := uint64(0); i < 40; i++ {
			out = append(out, workloads.RediskaSet(5000+13*i, i*i+1), workloads.RediskaGet(1000000+7*(i%96)))
		}
		for i := uint64(0); i < 10; i++ {
			out = append(out, workloads.RediskaDel(5000+26*i), workloads.RediskaGet(5000+13*i))
		}
		out = append(out, workloads.RediskaStats())
	case "nginz":
		for i := uint64(0); i < 12; i++ {
			out = append(out, workloads.NginzStatic(), workloads.NginzCompute(3+i))
		}
		out = append(out, workloads.Words(99, 0), workloads.NginzStats())
	}
	return out
}

// runGolden runs w natively on arch until it exits and reduces the run to
// its golden record.
func runGolden(t *testing.T, w workloads.Workload, arch isa.Arch) (guestGolden, *kernel.Process) {
	t.Helper()
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Cores: w.Threads})
	p, err := k.StartProcess(pair.ByArch(arch).LoadSpec(compiler.ExePath(w.Name, arch)))
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind == workloads.Server {
		for _, req := range serverScript(w.Name) {
			p.PushInput(req)
		}
		p.CloseInput()
	}
	var g guestGolden
	for {
		st, err := k.Step(p)
		if err != nil {
			t.Fatalf("step %d: %v\nconsole: %s", g.Steps, err, p.ConsoleString())
		}
		g.Steps++
		if st.Exited {
			break
		}
		if st.Trapped > 0 || (st.Runnable == 0 && st.Ran == 0) {
			t.Fatalf("guest stuck after %d steps: %+v", g.Steps, st)
		}
	}
	if p.Err != nil {
		t.Fatalf("guest failed: %v", p.Err)
	}
	g.Console = p.ConsoleString()
	g.ExitCode = p.ExitCode
	if out := p.TakeOutput(); len(out) > 0 {
		sum := sha256.Sum256(out)
		g.Output = hex.EncodeToString(sum[:])
	}
	for _, th := range p.Threads {
		g.ThreadCycles = append(g.ThreadCycles, th.Cycles)
	}
	g.VCycles = p.VCycles
	g.Syscalls = p.Syscalls
	h := sha256.New()
	var word [8]byte
	p.AS.MappedPages(func(_ mem.VMA, idx uint64, data []byte) bool {
		binary.LittleEndian.PutUint64(word[:], idx)
		h.Write(word[:])
		h.Write(data)
		g.Pages++
		return false
	})
	g.Memory = hex.EncodeToString(h.Sum(nil))
	return g, p
}

// TestGuestExecutionGolden pins guest execution itself: every workload on
// both ISAs, run natively at class S, must print, count and leave in
// memory exactly what testdata/guest_golden.json records. The file was
// written by this test at the commit before the interpreter got its
// predecoded code pages and the address space its software TLB (with the
// one-line Process.Syscalls counter added there to read the syscall
// count), so a pass means the rebuilt hot path moved no guest cycle, no
// scheduling decision and no byte of guest memory.
func TestGuestExecutionGolden(t *testing.T) {
	got := map[string]guestGolden{}
	for _, w := range workloads.All() {
		for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
			g, _ := runGolden(t, w, arch)
			got[w.Name+"/"+arch.String()] = g
		}
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(guestGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(guestGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(guestGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]guestGolden{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d runs, this build %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in the golden file", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: guest execution moved\n got %+v\nwant %+v", name, g, w)
		}
	}
}
