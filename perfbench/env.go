package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"sciborq"
	"sciborq/internal/server"
	"sciborq/internal/wire"
)

// env is the program under test: one DB served on real loopback
// listeners, HTTP and the binary wire protocol, as sciborqd wires them.
type env struct {
	db       *sciborq.DB
	core     *server.Server
	hs       *http.Server
	ws       *wire.Server
	httpAddr string
	wireAddr string
	errs     chan error
}

func serve(db *sciborq.DB) (*env, error) {
	core, err := server.New(server.Config{DB: db, MaxInFlight: 8, MaxQueue: 32, MaxQueryTime: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hln.Close()
		return nil, err
	}
	e := &env{db: db, core: core, httpAddr: hln.Addr().String(), wireAddr: wln.Addr().String(),
		errs: make(chan error, 2)}
	e.hs = &http.Server{Handler: core.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.ws = wire.NewServer(wire.Config{DB: db, Core: core, MaxQueryTime: 30 * time.Second})
	core.SetWireStats(func() any { return e.ws.Stats() })
	go func() { e.errs <- e.hs.Serve(hln) }()
	go func() { e.errs <- e.ws.Serve(wln) }()
	return e, nil
}

// close shuts both listeners down, waits for their serve loops, and
// then closes the DB (final seal for durable tables).
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	if err := e.hs.Shutdown(ctx); err != nil {
		first = err
	}
	if err := e.ws.Shutdown(ctx); err != nil && first == nil {
		first = err
	}
	for i := 0; i < 2; i++ {
		err := <-e.errs
		if err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) && first == nil {
			first = err
		}
	}
	if err := e.db.Close(); err != nil && first == nil {
		first = err
	}
	if first != nil {
		return fmt.Errorf("shutdown: %w", first)
	}
	return nil
}

// conns is the benchmark's client side: one HTTP keep-alive connection
// and one wire session.
type conns struct {
	h *httpClient
	w *wireClient
}

func dial(e *env) (*conns, error) {
	w, err := newWireClient(e.wireAddr)
	if err != nil {
		return nil, err
	}
	return &conns{h: newHTTPClient(e.httpAddr), w: w}, nil
}

func (c *conns) close() {
	c.h.close()
	c.w.close()
}

// via names the transport an operation uses.
type via int

const (
	viaHTTP via = iota
	viaWire
)

func (c *conns) run(v via, s *stmt) (*reply, error) {
	if v == viaWire || s.lits != nil || s.cls == clsExport {
		return c.w.run(s)
	}
	return c.h.query(s.sql)
}
