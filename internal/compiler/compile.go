package compiler

import (
	"github.com/dapper-sim/dapper/internal/ir"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/lang"
)

// Compile runs the full pipeline: parse, check, lower, and build the
// aligned dual-architecture binary pair.
func Compile(src string) (*Pair, error) {
	file, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := lang.Check(file)
	if err != nil {
		return nil, err
	}
	prog, err := ir.Lower(file, info)
	if err != nil {
		return nil, err
	}
	return BuildPair(prog)
}

// ExePath returns the conventional executable path for a program name on
// an architecture (e.g. /bin/prog.sx86). The cross-ISA rewriter swaps the
// suffix when retargeting the files image.
func ExePath(name string, arch isa.Arch) string {
	return "/bin/" + name + "." + arch.String()
}
