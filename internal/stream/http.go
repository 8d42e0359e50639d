package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// IngestResponse is the POST /api/ingest answer.
type IngestResponse struct {
	// Accepted is the number of events journaled and applied.
	Accepted int `json:"accepted"`
	// Users lists the ids assigned to the batch's add-user events, in
	// event order.
	Users []int32 `json:"users,omitempty"`
	// Pending is the current publish lag in events; Generation the last
	// published generation (the batch becomes query-visible at
	// Generation+1).
	Pending    int    `json:"pending"`
	Generation uint64 `json:"generation"`
}

// Handler exposes the updater over HTTP:
//
//	POST /api/ingest         body: [{"type":"add-user"}, {"type":"add-doc","user":120,"words":[1,2]}, ...]
//	                         (or {"events":[...]}) — validate, journal, apply; 503 while draining
//	GET  /api/ingest/status  the freshness/lag gauge (Status)
//
// cmd/cpd-serve mounts it next to serve.APIHandler.
func (u *Updater) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST an event batch", http.StatusMethodNotAllowed)
			return
		}
		// Cap the body before decoding; MaxEventWords bounds each event,
		// this bounds the batch.
		r.Body = http.MaxBytesReader(w, r.Body, 16<<20)
		evs, err := decodeEventBatch(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(evs) == 0 {
			http.Error(w, "empty event batch", http.StatusBadRequest)
			return
		}
		resolved, err := u.Ingest(evs)
		if err != nil {
			status := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrDraining):
				status = http.StatusServiceUnavailable
			case errors.Is(err, ErrJournal):
				// Server-side write failure, possibly after a partial
				// apply — not the client's fault, and not safely
				// retryable as-is.
				status = http.StatusInternalServerError
			}
			http.Error(w, err.Error(), status)
			return
		}
		resp := IngestResponse{Accepted: len(resolved)}
		for i := range resolved {
			if resolved[i].Type == EvAddUser {
				resp.Users = append(resp.Users, resolved[i].User)
			}
		}
		st := u.Status()
		resp.Pending, resp.Generation = st.PendingEvents, st.Generation
		writeJSON(w, resp)
	})
	mux.HandleFunc("/api/ingest/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, u.Status())
	})
	return mux
}

// decodeEventBatch accepts either a bare JSON array of events or an
// {"events": [...]} wrapper. A body that ends (or fails to read — the size
// cap) before its closing bracket is an error, never a shorter batch.
func decodeEventBatch(r *http.Request) ([]Event, error) {
	dec := json.NewDecoder(r.Body)
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	open, _ := tok.(json.Delim)
	var evs []Event
	switch open {
	case '[':
		for dec.More() {
			var ev Event
			if err := dec.Decode(&ev); err != nil {
				return nil, err
			}
			evs = append(evs, ev)
		}
	case '{':
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				return nil, err
			}
			if name, ok := key.(string); ok && name == "events" {
				evs = nil // a repeated key replaces the batch, stale fields included
				if err := dec.Decode(&evs); err != nil {
					return nil, err
				}
			} else {
				var skip json.RawMessage
				if err := dec.Decode(&skip); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, errors.New("stream: ingest body must be an event array or {\"events\": [...]}")
	}
	if _, err := dec.Token(); err != nil { // the closing bracket
		return nil, fmt.Errorf("stream: ingest body is truncated: %w", err)
	}
	return evs, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
