package obs

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
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

// TestServerDropsStalledBody: a client that sends complete headers and then
// trickles the body — here 10 of 100 promised bytes, then nothing — cannot
// hold a handler reading it: the read fails and the connection ends once
// the read timeout passes, and the server keeps serving.
func TestServerDropsStalledBody(t *testing.T) {
	defer func(d time.Duration) { readTimeout = d }(readTimeout)
	readTimeout = 250 * time.Millisecond
	srv := NewServer(nil, nil)
	readErr := make(chan error, 1)
	srv.Mount("/upload", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		readErr <- err
	}))
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
	req := "POST /upload HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n" + strings.Repeat("x", 10)
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readErr:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("handler's body read ended with %v, want a timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handler still blocked reading a stalled body")
	}
	// The deadline only bounds a server that never closes the connection.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection ended with %v, want it closed", err)
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
