package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// server is one http.Server on a loopback socket the kernel picked.
type server struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed from close
	}()
	return s, nil
}

// close stops the listener and every connection and waits for Serve to
// return.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// modelShape is the serving model's dimensions.
type modelShape struct {
	users, communities, topics, words int
}

const modelSeed = 2017

func (ms modelShape) space() space {
	return space{users: ms.users, words: ms.words, topics: ms.topics, buckets: 24}
}

// fleet is the serving side of a read workload: one full node, or a
// router over shard-owning replicas. Everything listens on loopback in
// this process.
type fleet struct {
	dir      string
	path     string // the full v2 snapshot of the model
	model    *core.Model
	front    *server // what clients talk to
	engines  []*serve.Engine
	servers  []*server
	rt       *router.Router
	backends *http.Transport
	mappedMB float64 // largest per-replica mapping
}

func (f *fleet) close() {
	for i := len(f.servers) - 1; i >= 0; i-- { // the front first
		f.servers[i].close()
	}
	if f.backends != nil {
		f.backends.CloseIdleConnections()
	}
	for _, e := range f.engines {
		e.Close()
	}
	os.RemoveAll(f.dir)
}

// saveModel builds the fixed serving model and writes it as a v2
// snapshot under a fresh directory.
func saveModel(tmp string, ms modelShape) (dir, path string, m *core.Model, err error) {
	dir, err = os.MkdirTemp(tmp, "fleet-")
	if err != nil {
		return "", "", nil, err
	}
	m = serve.SyntheticModel(ms.users, ms.communities, ms.topics, ms.words, modelSeed)
	path = filepath.Join(dir, "model.v2.snap")
	if err := store.SaveV2(path, m); err != nil {
		os.RemoveAll(dir)
		return "", "", nil, err
	}
	return dir, path, m, nil
}

// mappedEngine opens a v2 snapshot through the zero-copy path and serves
// it as the default snapshot.
func mappedEngine(path string) (*serve.Engine, error) {
	mm, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	e := serve.NewMulti(serve.Options{Mmap: true})
	e.SwapMapped(serve.DefaultSnapshot, mm, nil)
	return e, nil
}

// startNode serves the mapped model from one full node.
func startNode(tmp string, ms modelShape, tr *tracer) (*fleet, error) {
	dir, path, m, err := saveModel(tmp, ms)
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, path: path, model: m}
	e, err := mappedEngine(path)
	if err != nil {
		f.close()
		return nil, err
	}
	f.engines = append(f.engines, e)
	s, err := startServer(tr.traced("serve.httpapi", serve.APIHandler(e, nil)))
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append(f.servers, s)
	f.front = s
	return f, nil
}

const fleetShards = 3

// startRouted splits the model into a shard group, serves each shard
// from its own replica, and fronts them with the router.
func startRouted(tmp string, ms modelShape, tr *tracer) (*fleet, error) {
	dir, path, m, err := saveModel(tmp, ms)
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, path: path, model: m}
	fail := func(err error) (*fleet, error) {
		f.close()
		return nil, err
	}
	man, err := shard.Split(path, dir, 1, shard.SplitOptions{Shards: fleetShards})
	if err != nil {
		return fail(err)
	}
	var replicas []router.Replica
	for i := 0; i < fleetShards; i++ {
		g, err := shard.OpenGroup(dir, man, i)
		if err != nil {
			return fail(err)
		}
		if mb := float64(g.MappedBytes) / 1e6; mb > f.mappedMB {
			f.mappedMB = mb
		}
		e := serve.NewMulti(serve.Options{Mmap: true})
		f.engines = append(f.engines, e)
		e.PromoteShardGroup(serve.DefaultSnapshot, g, nil, 1)
		s, err := startServer(tr.traced("serve.httpapi", serve.APIHandler(e, nil)))
		if err != nil {
			return fail(err)
		}
		f.servers = append(f.servers, s)
		replicas = append(replicas, router.Replica{Name: "shard-" + strconv.Itoa(i), Base: s.base})
	}
	// The same connection pool sizing cmd/cpd-router runs with.
	f.backends = &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64}
	f.rt, err = router.New(replicas, router.Options{
		Client: &http.Client{Timeout: 10 * time.Second, Transport: &transport{t: tr, base: f.backends}},
	})
	if err != nil {
		return fail(err)
	}
	f.rt.PollReplicas()
	if st := f.rt.Stats(); !st.Sharded || st.Shards != fleetShards || st.Healthy != fleetShards {
		return fail(fmt.Errorf("router sees sharded=%v shards=%d healthy=%d, want a healthy %d-shard fleet", st.Sharded, st.Shards, st.Healthy, fleetShards))
	}
	s, err := startServer(tr.traced("router", f.rt.Handler()))
	if err != nil {
		return fail(err)
	}
	f.servers = append(f.servers, s)
	f.front = s
	return f, nil
}

// client is one load-generating caller with one connection.
type client struct {
	hc   *http.Client
	tp   *http.Transport
	base string
	tr   *tracer
	body bytes.Buffer // the last response body
}

func newClient(base string, tr *tracer) *client {
	tp := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tp, Timeout: 30 * time.Second}, tp: tp, base: base, tr: tr}
}

func (c *client) close() { c.tp.CloseIdleConnections() }

// target is how a request goes over HTTP: method, path with query, and
// for fold-in the JSON body.
func (r *request) target() (method, path string, body []byte) {
	switch r.op {
	case opRank:
		u := append(make([]byte, 0, 48), "/api/rank?w="...)
		for i, w := range r.words {
			if i > 0 {
				u = append(u, ',')
			}
			u = strconv.AppendInt(u, int64(w), 10)
		}
		u = append(u, "&k="...)
		return http.MethodGet, string(strconv.AppendInt(u, int64(r.k), 10)), nil
	case opMembership:
		return http.MethodGet, "/api/user?id=" + strconv.Itoa(r.u) + "&k=" + strconv.Itoa(r.k), nil
	case opDiffusion:
		return http.MethodGet, "/api/diffusion?u=" + strconv.Itoa(r.u) + "&v=" + strconv.Itoa(r.v) +
			"&topic=" + strconv.Itoa(r.z) + "&bucket=" + strconv.Itoa(r.b), nil
	default:
		body, err := json.Marshal(r.foldin)
		if err != nil {
			panic(err) // slices of integers always encode
		}
		return http.MethodPost, "/api/foldin", body
	}
}

// do sends one request and reads the whole reply into c.body. With the
// tracer on it records the client span and returns its id.
func (c *client) do(r *request) (spanID int, err error) {
	method, path, payload := r.target()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	hreq, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if payload != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	var s span
	tracing := c.tr.on.Load()
	if tracing {
		s = c.tr.begin(0, "loadgen", r.op.String())
		hreq.Header.Set(parentHeader, strconv.Itoa(s.Span))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if tracing {
		s.Bytes = int64(c.body.Len())
		c.tr.end(s)
	}
	if err != nil {
		return s.Span, err
	}
	if resp.StatusCode != http.StatusOK {
		return s.Span, fmt.Errorf("%s answered status %d: %s", r.op, resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	return s.Span, nil
}
