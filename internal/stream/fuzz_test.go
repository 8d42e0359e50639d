package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/serve"
)

// fuzzRecord frames one payload as a journal record.
func fuzzRecord(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+8)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	out = append(out, hdr[:]...)
	out = append(out, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	return append(out, crc[:]...)
}

// FuzzJournal throws arbitrary bytes at the journal recovery and replay
// paths — the same pattern store's FuzzLoad uses for snapshots. The
// invariants: OpenJournal never panics and never reports more state than
// the file can back; whatever it recovers replays cleanly; and a
// subsequent append followed by a reopen preserves the recovered prefix
// plus the new record.
func FuzzJournal(f *testing.F) {
	// Seed corpus: empty file, bare header, valid records, and the classic
	// corruption shapes (truncation, bit flips, oversize length claims).
	f.Add([]byte{})
	f.Add([]byte(journalMagic))
	hdr := make([]byte, journalHdrLen)
	copy(hdr, journalMagic)
	f.Add(hdr)
	valid := append([]byte{}, hdr...)
	valid = append(valid, fuzzRecord(encodeEvent(nil, &Event{Type: EvAddUser, User: 5}))...)
	valid = append(valid, fuzzRecord(encodeEvent(nil, &Event{Type: EvAddDoc, User: 5, Time: 3, Words: []int32{1, 2, 3}}))...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-6] ^= 0x10
	f.Add(flipped)
	oversize := append([]byte{}, hdr...)
	var big [4]byte
	binary.LittleEndian.PutUint32(big[:], maxRecordBytes+1)
	f.Add(append(oversize, big[:]...))
	badType := append([]byte{}, hdr...)
	f.Add(append(badType, fuzzRecord(encodeEvent(nil, &Event{Type: EventType(200), User: 1}))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, JournalOptions{SyncEvery: -1})
		if err != nil {
			return // rejected outright: fine, as long as it did not panic
		}
		var recovered int
		if err := j.Replay(j.Base(), func(off uint64, ev Event) error {
			recovered++
			if off > j.Tail() {
				t.Fatalf("replay offset %d past tail %d", off, j.Tail())
			}
			return nil
		}); err != nil {
			t.Fatalf("recovered journal does not replay cleanly: %v", err)
		}
		if uint64(recovered) != j.Events() {
			t.Fatalf("replayed %d events, journal claims %d", recovered, j.Events())
		}
		ev := Event{Type: EvAddEdge, User: 1, Target: 2}
		if _, err := j.Append(&ev); err != nil {
			t.Fatalf("append after recovery failed: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path, JournalOptions{})
		if err != nil {
			t.Fatalf("reopen after recovery+append failed: %v", err)
		}
		defer j2.Close()
		if got := j2.Events(); got != uint64(recovered+1) {
			t.Fatalf("reopen sees %d events, want %d", got, recovered+1)
		}
	})
}

// referenceEventBatch decodes a well-formed ingest body the plain way:
// an array through one json.Unmarshal; a wrapper member by member, every
// "events" member (exact name) through json.Unmarshal into a fresh slice —
// any of them failing fails the body, the last one is the batch.
func referenceEventBatch(body []byte) ([]Event, error) {
	var evs []Event
	switch trimmed := bytes.TrimLeft(body, " \t\r\n"); {
	case bytes.HasPrefix(trimmed, []byte("[")):
		return evs, json.Unmarshal(body, &evs)
	case bytes.HasPrefix(trimmed, []byte("{")):
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.Token() // the opening brace of a document json.Valid accepted
		for dec.More() {
			key, _ := dec.Token()
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				return nil, err
			}
			if key == "events" {
				evs = nil
				if err := json.Unmarshal(raw, &evs); err != nil {
					return nil, err
				}
			}
		}
		return evs, nil
	}
	return nil, errors.New("neither an array nor an object")
}

// FuzzIngestJSON holds the /api/ingest body decoder to encoding/json on
// every well-formed document (same events, or both refuse), and then posts
// the body to a live updater: the answer is 200 with every decoded event
// journaled in order, or 400 with the journal untouched — never a panic, a
// 5xx, or a batch cut short.
func FuzzIngestJSON(f *testing.F) {
	for _, seed := range []string{
		`[{"type":"add-user"},{"type":"add-doc","user":30,"words":[1,2,3]}]`,
		`{"events":[{"type":"add-edge","user":0,"target":1}]}`,
		`{"note":"x","events":[{"type":3,"user":2,"time":7,"words":[5]}],"events":[{}]}`,
		`[{"type":"diffusion","user":1,"target":0,"words":[4]}]`,
		`[{"type":"add-doc","user":99999,"words":[1]}]`,
		`[{"type":"add-doc","user":0,"words":[-1]}]`,
		`[{"type":"bogus"}]`,
		`[{"type":"add-user"}`,
		`[{"type":"add-user"}] trailing`,
		`{"events":null}`,
		`[]`, `{}`, `null`, `3`, ``,
		`[{"type":"add-edge","user":1,"target":1}]`,
		`[{"type":"add-user","user":1e9}]`,
	} {
		f.Add([]byte(seed))
	}
	_, j, u := newTestUpdater(f, nil, serve.SyntheticModel(30, 4, 3, 40, 1), nil)
	h := u.Handler()
	post := func(body []byte) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/api/ingest", bytes.NewReader(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		evs, err := decodeEventBatch(post(body))
		if json.Valid(body) {
			want, wantErr := referenceEventBatch(body)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("decoder error %v, encoding/json error %v, body %q", err, wantErr, body)
			}
			if err == nil && !(len(evs) == 0 && len(want) == 0) && !reflect.DeepEqual(evs, want) {
				t.Fatalf("decoder read %+v, encoding/json %+v, body %q", evs, want, body)
			}
		} else if lead := bytes.TrimLeft(body, " \t\r\n"); err == nil && !bytes.HasPrefix(lead, []byte("[")) && !bytes.HasPrefix(lead, []byte("{")) {
			t.Fatalf("decoder accepted a body that is neither an array nor an object: %q", body)
		}

		before := j.Tail()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, post(body))
		switch rec.Code {
		case http.StatusOK:
			if err != nil || len(evs) == 0 {
				t.Fatalf("ingest accepted a body the decoder made %d events (error %v) of: %q", len(evs), err, body)
			}
			var resp IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Accepted != len(evs) {
				t.Fatalf("ingest answered %s (error %v) for %d events", rec.Body.String(), err, len(evs))
			}
			i := 0
			if err := j.Replay(before, func(_ uint64, got Event) error {
				if i < len(evs) {
					want := evs[i]
					if want.Type == EvAddUser {
						want.User = got.User // resolved at ingest
					}
					if len(want.Words) == 0 {
						want.Words = got.Words // nil and empty are one record
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("journaled event %d is %+v, posted %+v", i, got, evs[i])
					}
				}
				i++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if i != len(evs) {
				t.Fatalf("journal grew by %d events, batch had %d", i, len(evs))
			}
		case http.StatusBadRequest:
			if j.Tail() != before {
				t.Fatalf("a refused batch moved the journal tail %d -> %d: %q", before, j.Tail(), body)
			}
		default:
			t.Fatalf("ingest answered %d: %s", rec.Code, rec.Body.String())
		}
	})
}
