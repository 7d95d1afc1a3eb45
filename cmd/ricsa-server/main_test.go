package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerDropsStalledHeader: the server is built with every read-side
// timeout set and no write timeout, and a client that opens a connection
// and never finishes its request header is disconnected rather than
// holding the connection (and its goroutine) forever.
func TestServerDropsStalledHeader(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("a read-side timeout is disabled: header=%v read=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut frame long-polls short", srv.WriteTimeout)
	}

	// Same server, header timeout shortened so the test does not wait out
	// the production constant.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\nX-Stall: "); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //ricsa:wallclock failsafe on a real TCP read
	// The server answers a stalled header with at most an error status and
	// then closes; either way the read ends instead of blocking.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept the stalled connection open: %v", err)
	}
}
