package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testEvents(n int) []Event {
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			evs = append(evs, Event{Type: EvAddUser, User: int32(100 + i)})
		case 1:
			evs = append(evs, Event{Type: EvAddEdge, User: int32(i), Target: int32(i + 1)})
		case 2:
			evs = append(evs, Event{Type: EvAddDoc, User: int32(i), Time: int64(i * 10), Words: []int32{1, 2, int32(i)}})
		default:
			evs = append(evs, Event{Type: EvDiffusion, User: int32(i), Target: 7, Time: int64(i), Words: []int32{9}})
		}
	}
	return evs
}

func openTestJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := OpenJournal(filepath.Join(dir, "events.wal"), JournalOptions{SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func replayAll(t *testing.T, j *Journal, from uint64) []Event {
	t.Helper()
	var out []Event
	if err := j.Replay(from, func(off uint64, ev Event) error {
		out = append(out, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	want := testEvents(25)
	var offsets []uint64
	for i := range want {
		off, err := j.Append(&want[i])
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, off)
	}
	if got := replayAll(t, j, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay disagrees with the appended events:\n got %+v\nwant %+v", got, want)
	}
	// Replay from a mid-stream offset yields exactly the suffix.
	if got := replayAll(t, j, offsets[9]); !reflect.DeepEqual(got, want[10:]) {
		t.Fatalf("suffix replay from offset %d returned %d events, want %d", offsets[9], len(got), len(want)-10)
	}
	if j.Events() != uint64(len(want)) {
		t.Fatalf("Events() = %d, want %d", j.Events(), len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything survives.
	j2 := openTestJournal(t, dir)
	defer j2.Close()
	if got := replayAll(t, j2, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened journal lost events")
	}
}

// TestJournalCrashRecovery is the satellite contract: a truncated or
// bit-flipped tail is detected on open, replay stops at the last valid
// record, and appends continue cleanly after recovery.
func TestJournalCrashRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(p []byte) []byte
		keep   int // events expected to survive out of 10
	}{
		{"truncated-mid-record", func(p []byte) []byte { return p[:len(p)-5] }, 9},
		{"truncated-mid-header", func(p []byte) []byte { return p[:len(p)-1] }, 9},
		{"flipped-payload-bit", func(p []byte) []byte { p[len(p)-10] ^= 0x40; return p }, 9},
		{"garbage-appended", func(p []byte) []byte { return append(p, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3) }, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "events.wal")
			j, err := OpenJournal(path, JournalOptions{SyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := testEvents(10)
			for i := range want {
				if _, err := j.Append(&want[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			p, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(p), 0o644); err != nil {
				t.Fatal(err)
			}

			j2, err := OpenJournal(path, JournalOptions{})
			if err != nil {
				t.Fatalf("recovery open failed: %v", err)
			}
			defer j2.Close()
			got := replayAll(t, j2, 0)
			if !reflect.DeepEqual(got, want[:tc.keep]) {
				t.Fatalf("recovered %d events, want the %d-event valid prefix", len(got), tc.keep)
			}
			// The journal keeps working after recovery.
			extra := Event{Type: EvAddDoc, User: 1, Words: []int32{5}}
			if _, err := j2.Append(&extra); err != nil {
				t.Fatal(err)
			}
			all := replayAll(t, j2, 0)
			if len(all) != tc.keep+1 || !reflect.DeepEqual(all[tc.keep], extra) {
				t.Fatal("append after recovery did not land cleanly")
			}
		})
	}
}

func TestJournalWatermark(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	want := testEvents(20)
	var offsets []uint64
	for i := range want {
		off, err := j.Append(&want[i])
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, off)
	}
	if err := j.SetWatermark(offsets[11]); err != nil {
		t.Fatal(err)
	}
	if err := j.SetWatermark(offsets[len(offsets)-1] + 999); err == nil {
		t.Fatal("SetWatermark accepted an offset past the tail")
	}
	// Replay from the watermark sees exactly the unpublished suffix.
	if got := replayAll(t, j, j.Watermark()); !reflect.DeepEqual(got, want[12:]) {
		t.Fatal("replay from the watermark disagrees with the events past it")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A reopen keeps the watermark and every record.
	j2 := openTestJournal(t, dir)
	defer j2.Close()
	if j2.Watermark() != offsets[11] || j2.Events() != 20 {
		t.Fatalf("reopened journal: watermark %d (want %d), %d events (want 20)", j2.Watermark(), offsets[11], j2.Events())
	}
	if got := replayAll(t, j2, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened journal does not replay every record")
	}
}

// TestJournalRefusesCompactedHeader: a journal compacted by an older
// build records a nonzero base offset in its header; the records below it
// lived only in a checkpoint this package no longer reads, so OpenJournal
// refuses the file, naming it, and leaves it as it was.
func TestJournalRefusesCompactedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.wal")
	data := make([]byte, journalHdrLen)
	copy(data, journalMagic)
	binary.LittleEndian.PutUint64(data[len(journalMagic):], 4096)
	ev := encodeEvent(nil, &Event{Type: EvAddEdge, User: 1, Target: 2})
	data = binary.LittleEndian.AppendUint32(data, uint32(len(ev)))
	data = append(data, ev...)
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(ev))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, JournalOptions{})
	if err == nil {
		j.Close()
		t.Fatal("a journal with a nonzero base offset was opened")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("the refusal does not name the file: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Fatal("the refused journal was modified")
	}
}

func TestJournalRejectsOversizeEvent(t *testing.T) {
	j := openTestJournal(t, t.TempDir())
	defer j.Close()
	if _, err := j.Append(&Event{Type: EvAddDoc, User: 0, Words: make([]int32, MaxEventWords+1)}); err == nil {
		t.Fatal("Append accepted an event beyond MaxEventWords")
	}
	if _, err := j.Append(&Event{Type: EventType(99), User: 0}); err == nil {
		t.Fatal("Append accepted an unknown event type")
	}
}

func TestEventTypeJSON(t *testing.T) {
	p, err := json.Marshal(Event{Type: EvAddDoc, User: 3, Words: []int32{1}})
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.Unmarshal(p, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != EvAddDoc {
		t.Fatalf("round-tripped type = %v", ev.Type)
	}
	if err := json.Unmarshal([]byte(`{"type":"diffusion","user":1,"target":2}`), &ev); err != nil || ev.Type != EvDiffusion {
		t.Fatalf("named type decode failed: %v (type %v)", err, ev.Type)
	}
	if err := json.Unmarshal([]byte(`{"type":"no-such"}`), &ev); err == nil {
		t.Fatal("unknown type name accepted")
	}
}
