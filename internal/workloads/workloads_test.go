package workloads_test

import (
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// runBatch runs a batch workload to completion on one architecture.
func runBatch(t *testing.T, pair *compiler.Pair, arch isa.Arch, threads int) *kernel.Process {
	t.Helper()
	k := kernel.New(kernel.Config{Cores: threads})
	p, err := k.StartProcess(pair.ByArch(arch).LoadSpec(compiler.ExePath("w", arch)))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(p); err != nil {
		t.Fatalf("run: %v\nconsole: %s", err, p.ConsoleString())
	}
	return p
}

// TestBatchWorkloadsCrossISA compiles every batch workload at class S and
// checks the output is identical on both architectures and carries the
// workload's marker.
func TestBatchWorkloadsCrossISA(t *testing.T) {
	for _, w := range workloads.All() {
		if w.Kind != workloads.Batch {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			pair, err := workloads.CompilePair(w, workloads.ClassS)
			if err != nil {
				t.Fatal(err)
			}
			px := runBatch(t, pair, isa.SX86, w.Threads)
			pa := runBatch(t, pair, isa.SARM, w.Threads)
			outX, outA := px.ConsoleString(), pa.ConsoleString()
			if outX != outA {
				t.Fatalf("cross-ISA mismatch:\nsx86: %q\nsarm: %q", outX, outA)
			}
			if !strings.Contains(outX, w.Name+" ") {
				t.Errorf("output missing %q marker: %q", w.Name, outX)
			}
			if px.ExitCode != 0 {
				t.Errorf("exit code %d", px.ExitCode)
			}
		})
	}
}

func serveOne(t *testing.T, k *kernel.Kernel, p *kernel.Process, req []byte) []uint64 {
	t.Helper()
	p.PushInput(req)
	for i := 0; i < 10000; i++ {
		st, err := k.Step(p)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if out := p.TakeOutput(); len(out) > 0 {
			return workloads.ParseWords(out)
		}
		if st.Exited {
			t.Fatalf("server exited: %s", p.ConsoleString())
		}
	}
	t.Fatal("no response")
	return nil
}

func TestRediskaProtocol(t *testing.T) {
	w, err := workloads.Get("rediska")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
		k := kernel.New(kernel.Config{})
		p, err := k.StartProcess(pair.ByArch(arch).LoadSpec(compiler.ExePath("rediska", arch)))
		if err != nil {
			t.Fatal(err)
		}
		if r := serveOne(t, k, p, workloads.RediskaSet(10, 99)); r[0] != 1 {
			t.Fatalf("%v: SET -> %v", arch, r)
		}
		if r := serveOne(t, k, p, workloads.RediskaGet(10)); r[0] != 1 || r[1] != 99 {
			t.Fatalf("%v: GET -> %v", arch, r)
		}
		if r := serveOne(t, k, p, workloads.RediskaGet(11)); r[0] != 0 {
			t.Fatalf("%v: GET missing -> %v", arch, r)
		}
		if r := serveOne(t, k, p, workloads.RediskaLoad(100)); r[0] != 1 || r[1] != 100 {
			t.Fatalf("%v: LOAD -> %v", arch, r)
		}
		if r := serveOne(t, k, p, workloads.RediskaStats()); r[1] != 101 {
			t.Fatalf("%v: STATS -> %v", arch, r)
		}
		if r := serveOne(t, k, p, workloads.RediskaDel(10)); r[0] != 1 {
			t.Fatalf("%v: DEL -> %v", arch, r)
		}
		if r := serveOne(t, k, p, workloads.RediskaGet(10)); r[0] != 0 {
			t.Fatalf("%v: GET after DEL -> %v", arch, r)
		}
		p.CloseInput()
		if err := k.Run(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNginzProtocol(t *testing.T) {
	w, err := workloads.Get("nginz")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := workloads.CompilePair(w, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	p, err := k.StartProcess(pair.X86.LoadSpec("/bin/nginz.sx86"))
	if err != nil {
		t.Fatal(err)
	}
	if r := serveOne(t, k, p, workloads.NginzStatic()); r[0] != 200 {
		t.Fatalf("static -> %v", r)
	}
	c1 := serveOne(t, k, p, workloads.NginzCompute(7))
	c2 := serveOne(t, k, p, workloads.NginzCompute(7))
	if c1[0] != 200 || c1[1] != c2[1] {
		t.Fatalf("compute unstable: %v vs %v", c1, c2)
	}
	if r := serveOne(t, k, p, workloads.Words(99, 0)); r[0] != 404 {
		t.Fatalf("bad route -> %v", r)
	}
	if r := serveOne(t, k, p, workloads.NginzStats()); r[1] != 4 {
		t.Fatalf("stats -> %v", r)
	}
	p.CloseInput()
	if err := k.Run(p); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	if len(workloads.All()) != 13 {
		t.Errorf("registry has %d workloads", len(workloads.All()))
	}
	if _, err := workloads.Get("nope"); err == nil {
		t.Error("want error for unknown workload")
	}
	w, err := workloads.Get("cg")
	if err != nil || w.Kind != workloads.Batch {
		t.Errorf("cg lookup: %+v, %v", w, err)
	}
	// Class scaling must grow the problem.
	if len(w.Source(workloads.ClassB)) == 0 {
		t.Error("empty source")
	}
}
