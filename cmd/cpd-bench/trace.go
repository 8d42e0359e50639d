package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing from outside the program: spans are recorded only by wrappers
// the harness itself constructs — the client, a middleware around each
// http.Handler, and an http.RoundTripper handed to the router — and by
// timing direct calls into a layer's public functions. The wrappers are
// always installed, so traced and untraced runs execute the same
// topology; with the tracer off each one costs an atomic load.

// span is one timed interval at a layer boundary. Trace is the index of
// the request (or publish, or training step) that caused it; with one
// request in flight every span between a client span's start and end
// belongs to that request.
type span struct {
	Trace   int    `json:"trace"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes"`
}

func (s *span) interval() interval { return interval{s.StartNs, s.EndNs} }
func (s *span) durNs() int64       { return s.EndNs - s.StartNs }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	on    atomic.Bool
	trace atomic.Int64 // the request index new spans are attributed to
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin reserves a span id and stamps the start; the caller fills the
// rest and calls end.
func (t *tracer) begin(parent int, layer, name string) span {
	return span{Trace: int(t.trace.Load()), Span: t.reserve(), Parent: parent, Layer: layer, Name: name, StartNs: t.now()}
}

// end stamps the end, stores the span and returns its duration.
func (t *tracer) end(s span) time.Duration {
	s.EndNs = t.now()
	t.put(s)
	return time.Duration(s.durNs())
}

// put stores a finished span (used directly for spans whose times were
// measured elsewhere, such as publish phases).
func (t *tracer) put(s span) {
	t.mu.Lock()
	if s.Span <= len(t.spans) { // a span begun before take() has nowhere to go
		t.spans[s.Span-1] = s
	}
	t.mu.Unlock()
}

// reserve returns a fresh span id for a span stored later with put.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

// take returns the recorded spans and resets the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parentHeader carries the calling span's id across a socket.
const parentHeader = "X-Bench-Parent"

type spanKey struct{}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// traced wraps a handler the harness serves: it records one span per
// request, parented to the span named in the request header, and puts
// its own id in the request context for a RoundTripper further down.
func (t *tracer) traced(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(parentHeader))
		s := t.begin(parent, layer, r.URL.Path)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.Span)))
		s.Bytes = cw.n
		t.end(s)
	})
}

// transport is the RoundTripper the router's backend client uses. A span
// runs from the call to the end of the response body, so it covers the
// whole backend hop as the router experiences it.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tr.t.on.Load() {
		return tr.base.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(int)
	s := tr.t.begin(parent, "http.backend", req.URL.Host+req.URL.Path)
	out := req.Clone(req.Context())
	out.Header.Set(parentHeader, strconv.Itoa(s.Span))
	resp, err := tr.base.RoundTrip(out)
	if err != nil {
		tr.t.end(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tr.t, s: s}
	return resp, nil
}

// spanBody ends its span when the body is drained or closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	done bool
}

func (b *spanBody) finish() {
	if !b.done {
		b.done = true
		b.t.end(b.s)
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// byTrace groups spans by the request that caused them.
func byTrace(spans []span) map[int][]*span {
	out := map[int][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.Span != 0 {
			out[s.Trace] = append(out[s.Trace], s)
		}
	}
	return out
}
