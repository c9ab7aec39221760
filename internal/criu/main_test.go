package criu

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package if a test leaves a goroutine behind. The
// page client owns none, so anything still running after the last test is
// a server or a test helper that was not closed. A -fuzz run is exempt:
// the fuzzing engine keeps a signal-handling goroutine of its own.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if fuzz := flag.Lookup("test.fuzz"); code == 0 && (fuzz == nil || fuzz.Value.String() == "") {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine leak: %d before the tests, %d after\n\n%s\n", before, n, buf)
			code = 1
		}
	}
	os.Exit(code)
}
