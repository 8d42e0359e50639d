package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/shard"
	"repro/internal/wire"
)

// APIHandler exposes the engine's typed query API as a JSON HTTP surface,
// plus the SocialLens browser page (the paper's footnote 1) over it. It is
// the one HTTP surface of cmd/cpd-serve and cmd/cpd-lens:
//
//	GET  /                                      SocialLens page
//	GET  /api/communities                       community summaries
//	GET  /api/community?id=3                    full community profile
//	GET  /api/user?id=42&k=5                    user membership
//	GET  /api/rank?q=deep+learning&k=10         free-text Eq. 19 ranking
//	GET  /api/rank?w=17,204&k=10                word-id Eq. 19 ranking
//	GET  /api/diffusion?u=1&v=2&topic=0&bucket=3 per-topic diffusion prob
//	GET  /api/graph?topic=-1&format=dot         Fig. 7 diffusion graph (JSON, or DOT)
//	POST /api/diffusion                         the same query with v's row and its rowsGeneration
//	                                            (sharded routing; another generation is 409)
//	GET  /api/pirow?id=42                       owned user's membership row (sharded routing)
//	POST /api/foldin                            fold-in one FoldInRequest
//	POST /api/drain                             flip the replica to draining
//	POST /api/reload                            hot-swap via reload (if non-nil)
//	GET  /api/snapshots                         per-snapshot accounting
//	GET  /api/generation                        publisher generation served (replica freshness)
//	GET  /api/stats                             latency histograms + RSS + quality summary
//	GET  /api/quality                           per-generation quality history + PLP baseline
//	GET  /metrics                               Prometheus text exposition
//	GET  /healthz                               liveness + model version
//
// Every query endpoint accepts an optional ?snapshot=NAME parameter
// selecting one of the engine's named snapshots (default "default");
// unknown names answer 404.
//
// The query endpoints a router relays — rank, user, diffusion, pirow,
// foldin — answer compact JSON with an explicit Content-Length, written
// and read by the append-based codec of wire.go; pipe them through
// `jq .` to read them. The browsing and admin endpoints stay indented.
//
// reload is invoked by POST /api/reload; pass nil to disable the endpoint
// (it returns 501). cmd/cpd-serve wires it to re-read the paths the server
// was started with, so HTTP clients cannot point the server at arbitrary
// files.
func APIHandler(e *Engine, reload func() error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, lensPage)
	})
	mux.HandleFunc("/api/communities", func(w http.ResponseWriter, r *http.Request) {
		out, err := e.CommunitiesIn(snapName(r.URL.Query()))
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/api/community", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		id, err := strconv.Atoi(q.Get("id"))
		if err != nil {
			http.Error(w, "bad or missing community id", http.StatusBadRequest)
			return
		}
		d, err := e.CommunityIn(snapName(q), id)
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		writeJSON(w, d)
	})
	mux.HandleFunc("/api/user", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		id, err := strconv.Atoi(q.Get("id"))
		if err != nil {
			http.Error(w, "bad or missing user id", http.StatusBadRequest)
			return
		}
		res, err := e.MembershipIn(snapName(q), id, intValue(q, "k", 0))
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		writeWire(w, res)
	})
	mux.HandleFunc("/api/rank", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		k := intValue(q, "k", 10)
		name := snapName(q)
		var res *RankResult
		var err error
		switch {
		case q.Get("w") != "":
			words := q.Get("w")
			ids := make([]int32, 0, strings.Count(words, ",")+1)
			for more := true; more; {
				var s string
				s, words, more = strings.Cut(words, ",")
				v, convErr := strconv.ParseInt(strings.TrimSpace(s), 10, 32)
				if convErr != nil {
					http.Error(w, fmt.Sprintf("bad word id %q", s), http.StatusBadRequest)
					return
				}
				ids = append(ids, int32(v))
			}
			res, err = e.RankIn(name, ids, k)
		case strings.TrimSpace(q.Get("q")) != "":
			res, err = e.RankTextIn(name, q.Get("q"), k)
		default:
			http.Error(w, "missing q or w parameter", http.StatusBadRequest)
			return
		}
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		writeWire(w, res)
	})
	mux.HandleFunc("/api/diffusion", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var req DiffusionRowsRequest
		if r.Method == http.MethodPost {
			// The row-carrying request of a router whose scorer does not
			// own v. Its own variable: what readWire decodes into escapes,
			// and a GET should not allocate a request.
			var posted DiffusionRowsRequest
			if !readWire(w, r, 1<<20, &posted) {
				return
			}
			req = posted
		} else {
			var err1, err2, err3 error
			req.U, err1 = strconv.Atoi(q.Get("u"))
			req.V, err2 = strconv.Atoi(q.Get("v"))
			req.Topic, err3 = strconv.Atoi(q.Get("topic"))
			if err1 != nil || err2 != nil || err3 != nil {
				http.Error(w, "u, v and topic are required integers", http.StatusBadRequest)
				return
			}
			req.Bucket = intValue(q, "bucket", -1)
		}
		res, err := e.DiffusionRowsIn(snapName(q), &req)
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		writeWire(w, res)
	})
	mux.HandleFunc("/api/graph", func(w http.ResponseWriter, r *http.Request) {
		// Pinned for the whole request, so a concurrent hot-swap cannot
		// unmap a mapped model while the graph is built.
		q := r.URL.Query()
		s, release, err := e.AcquireNamed(snapName(q))
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		defer release()
		topic := -1 // aggregate over topics, Fig. 7(a)
		if tq := q.Get("topic"); tq != "" {
			topic, err = strconv.Atoi(tq)
			if err != nil || topic < -1 || topic >= s.Model.Cfg.NumTopics {
				http.Error(w, fmt.Sprintf("bad topic %q (want -1..%d)", tq, s.Model.Cfg.NumTopics-1), http.StatusBadRequest)
				return
			}
		}
		dg := apps.BuildDiffusionGraph(s.Model, s.Vocab, topic)
		if q.Get("format") != "dot" {
			writeJSON(w, dg)
			return
		}
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		if err := dg.WriteDOT(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/api/pirow", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		id, err := strconv.Atoi(q.Get("id"))
		if err != nil {
			http.Error(w, "bad or missing user id", http.StatusBadRequest)
			return
		}
		res, err := e.PiRowIn(snapName(q), id)
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		writeWire(w, res)
	})
	mux.HandleFunc("/api/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST to drain", http.StatusMethodNotAllowed)
			return
		}
		e.Drain()
		writeJSON(w, map[string]bool{"draining": true})
	})
	mux.HandleFunc("/api/foldin", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a FoldInRequest", http.StatusMethodNotAllowed)
			return
		}
		// Cap the body before decoding: the fold-in limits cannot protect
		// the server if the JSON for an over-limit request is allowed to
		// materialize first. 16 MiB comfortably fits MaxFoldInTokens.
		var req FoldInRequest
		if !readWire(w, r, 16<<20, &req) {
			return
		}
		res, err := e.FoldInNamed(snapName(r.URL.Query()), &req)
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		writeWire(w, res)
	})
	mux.HandleFunc("/api/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST to reload", http.StatusMethodNotAllowed)
			return
		}
		if reload == nil {
			http.Error(w, "reload disabled", http.StatusNotImplemented)
			return
		}
		if err := reload(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]uint64{"version": e.version.Load()})
	})
	mux.HandleFunc("/api/snapshots", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, e.SnapshotsInfo())
	})
	mux.HandleFunc("/api/generation", func(w http.ResponseWriter, r *http.Request) {
		// Generation reporting for the distribution tier: the router polls
		// this to track per-replica freshness and lag. Like /healthz, an
		// empty replica (no snapshot promoted yet) is a valid state — it
		// answers generation 0 rather than erroring, so a cold replica can
		// join a fleet before its first fetch completes.
		name := r.URL.Query().Get("snapshot")
		explicit := name != ""
		if !explicit {
			name = DefaultSnapshot
		}
		s, release, err := e.AcquireNamed(name)
		if err != nil && !explicit {
			if names := e.Names(); len(names) > 0 {
				s, release, err = e.AcquireNamed(names[0])
			}
		}
		if err != nil {
			if explicit {
				writeQueryErr(w, err)
				return
			}
			writeJSON(w, GenerationReport{Draining: e.Draining()})
			return
		}
		defer release()
		writeJSON(w, GenerationReport{
			Snapshot:   s.Name,
			Generation: s.Generation,
			Version:    s.Version,
			Shard:      s.Shard,
			Draining:   e.Draining(),
		})
	})
	mux.HandleFunc("/api/stats", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		writeJSON(w, e.StatsReport())
		e.lat[epStats].Observe(time.Since(start), nil)
	})
	mux.HandleFunc("/api/quality", func(w http.ResponseWriter, r *http.Request) {
		p, err := e.QualityIn(snapName(r.URL.Query()))
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		writeJSON(w, p)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e.WriteMetrics(w)
		e.lat[epMetrics].Observe(time.Since(start), nil)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Process liveness must not depend on any particular snapshot
		// name existing: without ?snapshot= a healthy engine answers 200
		// whatever its slots are called (a multi-snapshot server has no
		// "default"). An explicit ?snapshot= asks about that snapshot and
		// 404s if unknown.
		name := r.URL.Query().Get("snapshot")
		explicit := name != ""
		if !explicit {
			name = DefaultSnapshot
		}
		s, release, err := e.AcquireNamed(name)
		if err != nil && !explicit {
			// No "default" slot; report against the first named one.
			if names := e.Names(); len(names) > 0 {
				s, release, err = e.AcquireNamed(names[0])
			}
		}
		status := "ok"
		if e.Draining() {
			status = "draining"
		}
		if err != nil {
			if explicit {
				writeQueryErr(w, err)
				return
			}
			writeJSON(w, map[string]any{"status": status, "draining": e.Draining(), "snapshots": e.Names()})
			return
		}
		defer release()
		payload := map[string]any{
			"status":     status,
			"draining":   e.Draining(),
			"snapshot":   s.Name,
			"version":    s.Version,
			"generation": s.Generation,
			"users":      s.Model.NumUsers,
			"words":      s.Model.NumWords,
			"mapped":     s.Mapped(),
		}
		if s.Shard != nil {
			payload["shard"] = s.Shard
		}
		writeJSON(w, payload)
	})
	return mux
}

// GenerationReport is the /api/generation payload: which publisher
// generation the replica currently serves. A replica with no snapshot
// yet reports the zero value. Shard advertises the owned user range on
// shard-owning replicas; Draining that the replica is leaving the fleet
// — both drive the router's placement.
type GenerationReport struct {
	Snapshot   string      `json:"snapshot,omitempty"`
	Generation uint64      `json:"generation"`
	Version    uint64      `json:"version,omitempty"`
	Shard      *shard.Info `json:"shard,omitempty"`
	Draining   bool        `json:"draining,omitempty"`
}

// DiffusionRowsRequest is a diffusion query: what GET /api/diffusion
// names in its query string, and the body of POST /api/diffusion, the
// request a router sends the owner of u when another shard owns v.
type DiffusionRowsRequest struct {
	U      int `json:"u"`
	V      int `json:"v"`
	Topic  int `json:"topic"`
	Bucket int `json:"bucket"`
	// VRow, when set, is v's membership row as v's owner served it, used
	// in place of the local one (nil falls back to the local model).
	VRow []float64 `json:"vrow,omitempty"`
	// RowsGeneration is the publisher generation VRow was read from, as
	// FoldInRequest.RowsGeneration is for friend rows: a snapshot serving
	// another generation answers ErrGenerationConflict (409) and the
	// router hydrates again. Zero skips the check.
	RowsGeneration uint64 `json:"rowsGeneration,omitempty"`
}

// snapName resolves the optional ?snapshot= parameter.
func snapName(q url.Values) string {
	if name := q.Get("snapshot"); name != "" {
		return name
	}
	return DefaultSnapshot
}

// writeQueryErr maps engine errors to HTTP statuses: unknown snapshot
// names are 404, missing vocabularies 501, misrouted shard queries 421
// (Misdirected Request — retry against the owning replica), hydrated
// rows from another generation 409 (Conflict — re-hydrate), anything
// else a 400.
func writeQueryErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var noSnap *ErrNoSnapshot
	var notOwned *ErrNotOwned
	var conflict *ErrGenerationConflict
	switch {
	case errors.As(err, &noSnap):
		status = http.StatusNotFound
	case errors.As(err, &notOwned):
		status = http.StatusMisdirectedRequest
	case errors.As(err, &conflict):
		status = http.StatusConflict
	case errors.Is(err, ErrNoVocabulary):
		status = http.StatusNotImplemented
	}
	http.Error(w, err.Error(), status)
}

// RunHTTP serves h on addr until the process receives SIGINT or SIGTERM,
// then shuts down gracefully: the listener closes immediately, in-flight
// requests get up to ten seconds to drain. It returns nil on a clean
// signal-triggered shutdown. Both cmd/cpd-serve and cmd/cpd-lens serve
// APIHandler through it instead of bare http.ListenAndServe.
func RunHTTP(addr string, h http.Handler) error {
	return RunHTTPWithShutdown(addr, h, nil)
}

// RunHTTPWithShutdown is RunHTTP with a drain hook: onSignal runs after
// the shutdown signal arrives but BEFORE the HTTP server stops serving,
// so a streaming server can stop accepting ingest, flush its journal and
// publish a final snapshot while reads keep flowing — the graceful-drain
// sequence of cmd/cpd-serve.
func RunHTTPWithShutdown(addr string, h http.Handler, onSignal func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if onSignal != nil {
		onSignal()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}

func intValue(q url.Values, name string, def int) int {
	if s := q.Get(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// jsonContentType is shared by every hot reply's header map; net/http
// only reads header values.
var jsonContentType = []string{"application/json"}

// writeWire answers 200 with v's compact encoding from a pooled buffer.
// Write copies the bytes before it returns, so the buffer can go back to
// the pool on the way out.
func writeWire(w http.ResponseWriter, v wireAppender) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	b, err := v.AppendWire(buf.B)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	buf.B = append(b, '\n')
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(buf.B))}
	w.Write(buf.B)
}

// wireDecoder is a request message that decodes itself.
type wireDecoder interface {
	DecodeWire(data []byte) error
}

// readWire reads a request body of at most limit bytes through a pooled
// buffer and decodes it into v (which keeps no reference to the bytes),
// answering 400 itself when it reports false.
func readWire(w http.ResponseWriter, r *http.Request, limit int64, v wireDecoder) bool {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = v.DecodeWire(buf.B)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// lensPage is the SocialLens page: a minimal single-page browser over the
// JSON routes above. It sorts the community summaries by size itself and
// renders a ranking from its entries.
const lensPage = `<!DOCTYPE html>
<html><head><title>SocialLens — community profiles</title>
<style>
body{font-family:sans-serif;margin:2em;max-width:60em}
table{border-collapse:collapse}td,th{border:1px solid #ccc;padding:4px 8px;text-align:left}
input{padding:4px;width:20em}pre{background:#f6f6f6;padding:1em;overflow:auto}
</style></head><body>
<h1>SocialLens</h1>
<p>Browse communities by content and interaction (CPD profiles).</p>
<p><input id="q" placeholder="query, e.g. a campaign keyword"> <button onclick="rank()">rank communities</button></p>
<div id="out"></div>
<script>
async function load(){
  const cs = await (await fetch('/api/communities')).json();
  cs.sort((a,b)=>b.members-a.members);
  render('<h2>Communities</h2>', cs);
}
async function rank(){
  const q = document.getElementById('q').value;
  const r = await fetch('/api/rank?q='+encodeURIComponent(q));
  if(!r.ok){document.getElementById('out').textContent = await r.text();return;}
  render('<h2>Top communities for "'+q+'"</h2>', (await r.json()).entries);
}
function render(title, rows){
  if(!rows.length){document.getElementById('out').textContent='no data';return;}
  const cols = Object.keys(rows[0]);
  let h = title+'<table><tr>'+cols.map(c=>'<th>'+c+'</th>').join('')+'</tr>';
  for(const row of rows){h += '<tr>'+cols.map(c=>'<td>'+JSON.stringify(row[c])+'</td>').join('')+'</tr>';}
  document.getElementById('out').innerHTML = h+'</table>';
}
load();
</script></body></html>
`
