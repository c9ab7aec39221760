package updatecheck_test

import (
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/updatecheck"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestExecutedPCsAreInstructionStarts checks the static disassembly
// against the dynamic one. Pass 1 decodes every function by a linear sweep
// from its entry and treats the PCs it lands on as the instruction starts
// (branch targets, call-site records and equivalence points are all
// validated against that set); the interpreter decodes only the PCs
// control flow actually reaches, into its predecode tables. If the sweep
// is sound, every PC the guest executed inside a function is one of the
// sweep's starts. A PC that is not means one of the two decoders is wrong
// about an instruction's length, and the test names it.
func TestExecutedPCsAreInstructionStarts(t *testing.T) {
	for _, w := range workloads.All() {
		pair, err := workloads.CompilePair(w, workloads.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		for _, bin := range []*compiler.Binary{pair.X86, pair.ARM} {
			k := kernel.New(kernel.Config{Cores: w.Threads})
			p, err := k.StartProcess(bin.LoadSpec(compiler.ExePath(w.Name, bin.Arch)))
			if err != nil {
				t.Fatal(err)
			}
			if w.Kind == workloads.Server {
				p.PushInput(workloads.Words(1, 7, 7)) // one request either server answers
				p.CloseInput()
			}
			if err := k.Run(p); err != nil {
				t.Fatalf("%s/%v: %v", w.Name, bin.Arch, err)
			}
			executed := p.Machine.DecodedPCs()
			if len(executed) == 0 {
				t.Fatalf("%s/%v: the machine reports no decoded PC", w.Name, bin.Arch)
			}
			starts := map[uint64]bool{}
			ub := toBin(bin)
			for _, f := range bin.Meta.Funcs {
				for _, pc := range updatecheck.InstStarts(ub, f) {
					starts[pc] = true
				}
			}
			inFuncs := 0
			for _, pc := range executed {
				f, ok := bin.Meta.FuncByPC(pc)
				if !ok {
					continue // start-up and trampoline code outside any function
				}
				inFuncs++
				if !starts[pc] {
					t.Errorf("%s/%v: guest executed 0x%x in %s, which the linear sweep does not list as an instruction start",
						w.Name, bin.Arch, pc, f.Name)
				}
			}
			if inFuncs == 0 {
				t.Errorf("%s/%v: none of the %d executed PCs lies in a function", w.Name, bin.Arch, len(executed))
			}
		}
	}
}
