package obs

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerDropsStalledRequest: a client that opens a connection and never
// finishes its request headers is disconnected once the header timeout
// passes. net/http treats the timeout as a common read error and closes
// without answering (there is no 408), so the client reads EOF and no bytes.
// A complete request on the same server is still served.
func TestServerDropsStalledRequest(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 250 * time.Millisecond
	srv := NewServer(nil, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The cut falls in the headers: a cut request line would be parsed as a
	// whole, malformed one and answered 400.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x")); err != nil {
		t.Fatal(err)
	}
	// The deadline only bounds a server that never closes the connection.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("stalled connection ended with %v, want EOF", err)
	}
	if len(got) != 0 {
		t.Errorf("server answered a stalled request with %q", got)
	}

	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", resp.StatusCode)
	}
}
