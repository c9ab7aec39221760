// Command b is the fixture's program: what it uses is used.
package main

import "deadsurface/internal/a"

func main() {
	a.Called()
	var s a.Shape = a.Square{Side: 2}
	_ = a.Run(a.XOpts{Set: s.Area() > 0})
}
