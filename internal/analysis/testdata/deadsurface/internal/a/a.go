// Package a is the dead-surface fixture: each declaration says whether
// the rules report it.
package a

// Unused is called by nobody: deadexport reports it.
func Unused() {}

// Called is called from cmd/b: not reported.
func Called() {}

// Shape is an interface cmd/b calls through.
type Shape interface{ Area() int }

// Square satisfies Shape.
type Square struct{ Side int }

// Area is reached only through Shape: not reported, because an
// interface of the module declares its name.
func (s Square) Area() int { return s.Side * s.Side }

// Asserted satisfies Shape, but only its own method and the assertion
// below name it: deadexport reports it.
type Asserted struct{}

// Area is Shape's method: not reported.
func (Asserted) Area() int { return 0 }

var _ Shape = Asserted{}

// XOpts is an options struct.
type XOpts struct {
	// TestOnly is set by a _test.go file alone: deadopt reports it.
	TestOnly bool
	// Set is set by cmd/b: not reported.
	Set bool
}

// Run takes the options.
func Run(o XOpts) bool { return o.Set || o.TestOnly }
