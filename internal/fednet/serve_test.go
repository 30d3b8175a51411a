package fednet

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestLoopbackServerLimits: the harness server drops a client that
// stalls in the middle of its request header once serveHeaderTimeout is up,
// and the same server lets a poll wait out its whole long-poll leg — twice
// the header timeout — and answers it.
func TestLoopbackServerLimits(t *testing.T) {
	t.Parallel()                               // ten seconds of waiting: beside the other parallel tests, not before them
	c := &Coordinator{N: 2, Cfg: testConfig()} // never run: round 1 never opens
	base, stop, err := serve(c.Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	t.Run("stalled header", func(t *testing.T) {
		t.Parallel()
		conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		if _, err := io.WriteString(conn, "GET /v1/round?t=1 HTTP/1.1\r\nHost: digfl\r\nX-Stall"); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(start.Add(serveHeaderTimeout + 5*time.Second))
		reply, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("the server still holds the stalled connection after %v: %v", time.Since(start), err)
		}
		// net/http closes the connection, after a bare 400 when part of a
		// header had arrived.
		if took := time.Since(start); took < serveHeaderTimeout-time.Second ||
			(len(reply) != 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 400 ")) {
			t.Errorf("stalled client dropped after %v with %q; want at most a 400, after about %v", took, reply, serveHeaderTimeout)
		}
	})
	t.Run("long poll", func(t *testing.T) {
		t.Parallel()
		start := time.Now()
		resp, err := http.Get(base + "/v1/round?t=1&i=0")
		if err != nil {
			t.Fatalf("long poll cut after %v: %v", time.Since(start), err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), StatePending) {
			t.Fatalf("long poll: status %d %q %v", resp.StatusCode, body, err)
		}
		if took := time.Since(start); took < longPollWait {
			t.Errorf("pending after %v, before the %v leg was up", took, longPollWait)
		}
	})
}
