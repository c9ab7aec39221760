package a

import "testing"

// A test's uses do not count: Unused and XOpts.TestOnly stay dead.
func TestA(t *testing.T) {
	Unused()
	if !Run(XOpts{TestOnly: true}) {
		t.Fail()
	}
}
