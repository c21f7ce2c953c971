package main

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"perturb/internal/server"
)

// perturbd is an in-process perturbd in its default configuration,
// serving on loopback. In a traced run it serves through a timedHandler.
type perturbd struct {
	srv     *server.Server
	handler *timedHandler // nil when untraced
	hs      *http.Server  // serves handler; nil when untraced
	addr    string        // host:port
	serveCh chan error
}

func startPerturbd(rec *recorder) (*perturbd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &perturbd{srv: server.New(server.Config{}), addr: ln.Addr().String(), serveCh: make(chan error, 1)}
	if rec == nil {
		go func() { p.serveCh <- p.srv.Serve(ln) }()
		return p, nil
	}
	p.handler = &timedHandler{next: p.srv.Handler(), rec: rec}
	p.hs = &http.Server{Handler: p.handler, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		err := p.hs.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		p.serveCh <- err
	}()
	return p, nil
}

// close shuts perturbd down and waits until it has stopped serving.
func (p *perturbd) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if p.hs != nil {
		if err := p.hs.Shutdown(ctx); err != nil {
			return err
		}
	}
	if _, err := p.srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-p.serveCh
}

// resetCounts forgets the retries and sheds counted so far (the
// warm-up's).
func (p *perturbd) resetCounts() {
	if p.handler != nil {
		p.handler.retries.Store(0)
		p.handler.shed.Store(0)
	}
}

// timedHandler wraps perturbd's handler in the traced run: it times the
// handler of each request whose client span is open, and counts retries
// (an attempt other than try0) and sheds (429 and 503).
type timedHandler struct {
	next    http.Handler
	rec     *recorder
	retries atomic.Int64
	shed    atomic.Int64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if a := r.Header.Get("X-Perturb-Attempt"); a != "" && a != "try0" {
		h.retries.Add(1)
	}
	id := -1
	op, err := strconv.ParseInt(strings.TrimPrefix(r.Header.Get("X-Perturb-Trace-Id"), "op-"), 10, 64)
	if parent := h.rec.root(op); err == nil && parent >= 0 {
		id = h.rec.begin("server.handler", parent, op)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	h.rec.end(id)
	if sw.status == http.StatusTooManyRequests || sw.status == http.StatusServiceUnavailable {
		h.shed.Add(1)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush passes flushes through, so the stream endpoint's window lines
// leave as they are written.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
