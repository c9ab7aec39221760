package cluster

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package if a test leaves a goroutine behind: an
// ImageReceiver's accept loop or a post-copy page server that some path of
// Migrate — a refusal, most likely — or a test did not close. A -fuzz run
// is exempt: the fuzzing engine keeps a signal-handling goroutine of its
// own.
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
