package stackmap

import (
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/isa/sarm"
	"github.com/dapper-sim/dapper/internal/isa/sx86"
	"github.com/dapper-sim/dapper/internal/kernel"
)

// Binary is a loadable DELF image for one architecture: machine code,
// initial data, symbols and the stack map that describes them. Both
// binaries of a pair share symbol addresses and metadata (the unified
// address space).
//
// It is declared here, in the lowest package that the compiler producing
// it, the loaders and the static verifiers all import, so each of them
// holds the same type: compiler.Binary and updatecheck.Binary are aliases
// of it, and the verifiers still never import the compiler.
//
// Its img struct tags are the DELF wire format (compiler.MarshalBinary).
type Binary struct {
	Arch       isa.Arch          `img:"1"`
	Text       []byte            `img:"2"`
	Data       []byte            `img:"3"`
	Entry      uint64            `img:"4,fixed"`
	ThreadExit uint64            `img:"5,fixed"`
	Symbols    map[string]uint64 `img:"6,fixed"`
	Meta       *Metadata         `img:"7"`
}

// CoderFor returns the machine-code coder for an architecture.
func CoderFor(a isa.Arch) isa.Coder {
	if a == isa.SX86 {
		return sx86.Coder{}
	}
	return sarm.Coder{}
}

// LoadSpec converts a binary into the kernel's loading form. exePath names
// the executable in the files image; by convention the pair uses the same
// stem with an architecture suffix so the rewriter can retarget it.
func (b *Binary) LoadSpec(exePath string) kernel.LoadSpec {
	return kernel.LoadSpec{
		Arch:       b.Arch,
		Coder:      CoderFor(b.Arch),
		Text:       b.Text,
		Data:       b.Data,
		Entry:      b.Entry,
		ThreadExit: b.ThreadExit,
		ExePath:    exePath,
	}
}
