package fednet

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// goroutinesSettle waits up to wait for the process to be back at limit
// goroutines and reports whether it got there (hfl's TestMain has the same
// check): one that is merely finishing exits well inside the wait, one
// blocked forever does not.
func goroutinesSettle(limit int, wait time.Duration) bool {
	for deadline := time.Now().Add(wait); runtime.NumGoroutine() > limit; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestMain fails the package if goroutines its tests started outlive them
// by more than a bounded wait: coordinators, participants, edges, long-poll
// handlers and the trainer's cohort draw must all end with the run that
// started them. Idle keep-alive connections of the shared client are closed
// first; their read and write loops are the transport's, not a leak. A
// `-fuzz` run is not checked: the fuzz engine, not a test, starts a signal
// loop that lives as long as the process.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	http.DefaultClient.CloseIdleConnections()
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	if code == 0 && !fuzzing && !goroutinesSettle(before, 10*time.Second) {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "fednet: %d goroutines outlived the tests (%d before them):\n%s\n",
			runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}
