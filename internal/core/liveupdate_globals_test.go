package core

import (
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/updatecheck"
)

// Global-layout regression tests for the live-update compatibility check,
// which is updatecheck's pass-2 classifier called directly: moved and
// removed globals must be rejected with their named invariants, while
// appended globals (the only layout change a running process cannot
// observe) must pass. These pin the one-classifier contract — core and
// dapper-updatecheck agree because they run the same code.

const globalsBase = `
var a int;
var b int;

func main() {
	var i int;
	for i = 0; i < 10; i = i + 1 {
		a = a + i;
		b = b + a;
	}
	printi(b);
}
`

// Same program, globals declared in the other order: every symbol still
// exists but both moved.
const globalsMoved = `
var b int;
var a int;

func main() {
	var i int;
	for i = 0; i < 10; i = i + 1 {
		a = a + i;
		b = b + a;
	}
	printi(b);
}
`

// b is gone.
const globalsRemoved = `
var a int;

func main() {
	var i int;
	for i = 0; i < 10; i = i + 1 {
		a = a + i;
	}
	printi(a);
}
`

// c appended after the existing layout: a and b keep their addresses.
const globalsAppended = `
var a int;
var b int;
var c int;

func main() {
	var i int;
	for i = 0; i < 10; i = i + 1 {
		a = a + i;
		b = b + a;
	}
	c = a + b;
	printi(b);
}
`

func compileInfo(t *testing.T, src string) *compiler.Binary {
	t.Helper()
	p, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p.X86
}

func TestUpdateCompatibilityGlobalMoved(t *testing.T) {
	old := compileInfo(t, globalsBase)
	err := updatecheck.Compatible(old, compileInfo(t, globalsMoved))
	if err == nil {
		t.Fatal("moved globals accepted")
	}
	if !strings.Contains(err.Error(), "global-moved") {
		t.Errorf("want global-moved invariant in error, got: %v", err)
	}
}

func TestUpdateCompatibilityGlobalRemoved(t *testing.T) {
	old := compileInfo(t, globalsBase)
	err := updatecheck.Compatible(old, compileInfo(t, globalsRemoved))
	if err == nil {
		t.Fatal("removed global accepted")
	}
	if !strings.Contains(err.Error(), "global-removed") {
		t.Errorf("want global-removed invariant in error, got: %v", err)
	}
}

func TestUpdateCompatibilityGlobalAppended(t *testing.T) {
	old := compileInfo(t, globalsBase)
	if err := updatecheck.Compatible(old, compileInfo(t, globalsAppended)); err != nil {
		t.Fatalf("appended global rejected: %v", err)
	}
}
