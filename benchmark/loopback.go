package main

import (
	"net"
	"net/http"
)

// loopback serves the authority's HTTP handler (JSON API and /ws) on a
// loopback listener whose accepted connections are timedConns.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startLoopback(h http.Handler, st *connStats, tr *tracer, owners *connOwners) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(&timedListener{Listener: ln, stats: st, tr: tr, owners: owners}) // returns ErrServerClosed on close
	}()
	return lb, nil
}

// close stops the server and waits for its accept loop to exit. Hijacked
// WebSocket connections are not the server's to close: they end when
// their clients close them.
func (l *loopback) close() {
	_ = l.srv.Close() // the only error is the listener's close error
	<-l.done
}
