package stream

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/store"
)

// EventType enumerates the journal's typed events.
type EventType uint8

const (
	// EvAddUser declares a new user. Ids are assigned densely above the
	// base model's population; Event.User <= 0 asks the updater to assign
	// the next id, a positive value must equal it (replayed journals carry
	// resolved ids).
	EvAddUser EventType = iota + 1
	// EvAddEdge adds a friendship edge Event.User -> Event.Target.
	EvAddEdge
	// EvAddDoc adds a document (Event.Words, timestamp Event.Time)
	// published by Event.User.
	EvAddDoc
	// EvDiffusion records that Event.User re-published (retweeted / cited)
	// document Event.Target with content Event.Words at Event.Time: it
	// creates the diffusing document and the diffusion link in one event.
	EvDiffusion
)

var eventNames = map[EventType]string{
	EvAddUser:   "add-user",
	EvAddEdge:   "add-edge",
	EvAddDoc:    "add-doc",
	EvDiffusion: "diffusion",
}

// String returns the wire name of the event type.
func (t EventType) String() string {
	if n, ok := eventNames[t]; ok {
		return n
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// MarshalJSON encodes the type by name ("add-doc"), the form the HTTP
// ingest surface speaks.
func (t EventType) MarshalJSON() ([]byte, error) {
	n, ok := eventNames[t]
	if !ok {
		return nil, fmt.Errorf("stream: unknown event type %d", uint8(t))
	}
	return json.Marshal(n)
}

// UnmarshalJSON accepts either the name or the numeric code.
func (t *EventType) UnmarshalJSON(p []byte) error {
	var s string
	if err := json.Unmarshal(p, &s); err == nil {
		for k, n := range eventNames {
			if n == s {
				*t = k
				return nil
			}
		}
		return fmt.Errorf("stream: unknown event type %q", s)
	}
	var n uint8
	if err := json.Unmarshal(p, &n); err != nil {
		return fmt.Errorf("stream: event type must be a name or a code")
	}
	*t = EventType(n)
	return nil
}

// Event is one journal record. Field meaning depends on Type; see the
// EventType constants.
type Event struct {
	Type   EventType `json:"type"`
	User   int32     `json:"user"`
	Target int32     `json:"target,omitempty"`
	Time   int64     `json:"time,omitempty"`
	Words  []int32   `json:"words,omitempty"`
}

// MaxEventWords bounds a single event's document length; the journal
// refuses longer records at append AND replay time, so a corrupt length
// field can never trigger an absurd allocation.
const MaxEventWords = 1 << 16

const (
	journalMagic   = "CPDJNL1\n"
	journalHdrLen  = 16 // magic + base offset, always 0
	recordFixedLen = 1 + 4 + 4 + 8 + 4
	maxRecordBytes = recordFixedLen + 4*MaxEventWords
)

// encodeEvent appends ev's payload bytes to buf.
func encodeEvent(buf []byte, ev *Event) []byte {
	var fixed [recordFixedLen]byte
	fixed[0] = byte(ev.Type)
	binary.LittleEndian.PutUint32(fixed[1:], uint32(ev.User))
	binary.LittleEndian.PutUint32(fixed[5:], uint32(ev.Target))
	binary.LittleEndian.PutUint64(fixed[9:], uint64(ev.Time))
	binary.LittleEndian.PutUint32(fixed[17:], uint32(len(ev.Words)))
	buf = append(buf, fixed[:]...)
	var w [4]byte
	for _, x := range ev.Words {
		binary.LittleEndian.PutUint32(w[:], uint32(x))
		buf = append(buf, w[:]...)
	}
	return buf
}

// decodeEvent parses one record payload.
func decodeEvent(p []byte) (Event, error) {
	var ev Event
	if len(p) < recordFixedLen {
		return ev, fmt.Errorf("stream: record payload of %d bytes is shorter than the fixed header", len(p))
	}
	ev.Type = EventType(p[0])
	if _, ok := eventNames[ev.Type]; !ok {
		return ev, fmt.Errorf("stream: record has unknown event type %d", p[0])
	}
	ev.User = int32(binary.LittleEndian.Uint32(p[1:]))
	ev.Target = int32(binary.LittleEndian.Uint32(p[5:]))
	ev.Time = int64(binary.LittleEndian.Uint64(p[9:]))
	n := binary.LittleEndian.Uint32(p[17:])
	if n > MaxEventWords {
		return ev, fmt.Errorf("stream: record claims %d words (limit %d)", n, MaxEventWords)
	}
	if uint32(len(p)-recordFixedLen) != 4*n {
		return ev, fmt.Errorf("stream: record claims %d words but carries %d payload bytes", n, len(p)-recordFixedLen)
	}
	if n > 0 {
		ev.Words = make([]int32, n)
		for i := range ev.Words {
			ev.Words[i] = int32(binary.LittleEndian.Uint32(p[recordFixedLen+4*i:]))
		}
	}
	return ev, nil
}

// JournalOptions tunes a journal. The zero value is ready for use.
type JournalOptions struct {
	// SyncEvery batches fsync: the file is synced after every SyncEvery-th
	// appended record (and always on Sync/Close). 0 selects the default
	// (64); 1 syncs every record; negative disables automatic sync
	// entirely (callers own durability via Sync).
	SyncEvery int
}

// Journal is the append-only event log. All methods are safe for
// concurrent use; appends are serialized internally.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer

	tail   uint64 // offset past the last valid record
	events uint64 // records currently in the file
	mark   uint64 // watermark (offset; <= tail)

	syncEvery int
	unsynced  int
	scratch   []byte
	closed    bool
}

// OpenJournal opens (creating if absent) the journal at path, replays it
// to find the valid tail, and truncates any torn or corrupt suffix — the
// crash-recovery contract: every record before the corruption survives,
// nothing after it is visible. The watermark is loaded from the sidecar
// and clamped to the tail.
func OpenJournal(path string, opts JournalOptions) (*Journal, error) {
	if opts.SyncEvery == 0 {
		opts.SyncEvery = 64
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	j := &Journal{path: path, f: f, syncEvery: opts.SyncEvery, scratch: make([]byte, 0, 1<<12)}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	j.w = bufio.NewWriterSize(f, 1<<16)
	j.mark = j.loadMark()
	return j, nil
}

// recover scans the file, validating every record, and truncates the
// first invalid byte onward. A fresh (empty) file gets its header written.
func (j *Journal) recover() error {
	fi, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if fi.Size() == 0 {
		var hdr [journalHdrLen]byte
		copy(hdr[:], journalMagic)
		if _, err := j.f.Write(hdr[:]); err != nil {
			return fmt.Errorf("stream: initializing journal: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		return nil
	}
	if fi.Size() < journalHdrLen {
		return fmt.Errorf("stream: %s is not a journal (only %d bytes)", j.path, fi.Size())
	}
	var hdr [journalHdrLen]byte
	if _, err := j.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("stream: reading journal header: %w", err)
	}
	if string(hdr[:len(journalMagic)]) != journalMagic {
		return fmt.Errorf("stream: %s is not a CPD event journal", j.path)
	}
	// Older builds compacted a journal by dropping the records below the
	// watermark into a checkpoint file, recording the offset of the first
	// kept record here. That prefix is not in the file, and the checkpoint
	// is no longer read, so such a journal cannot be replayed.
	if base := binary.LittleEndian.Uint64(hdr[8:]); base != 0 {
		return fmt.Errorf("stream: %s was compacted by an older build (its first record is at offset %d); its earlier events are not in the file", j.path, base)
	}
	br := bufio.NewReaderSize(io.NewSectionReader(j.f, journalHdrLen, fi.Size()-journalHdrLen), 1<<16)
	pos := int64(journalHdrLen) // physical offset of the next record
	for {
		n, payload, err := readRecord(br, &j.scratch)
		if err != nil {
			break // torn, corrupt or clean EOF: valid prefix ends at pos
		}
		if _, err := decodeEvent(payload); err != nil {
			break // framed correctly but not a valid event: treat as corrupt
		}
		pos += int64(n)
		j.tail += uint64(n)
		j.events++
	}
	if pos < fi.Size() {
		if err := j.f.Truncate(pos); err != nil {
			return fmt.Errorf("stream: truncating corrupt journal tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// readRecord reads and validates one record, returning its total framed
// size and payload. io.EOF (clean end), truncation and CRC mismatches all
// come back as errors.
func readRecord(br *bufio.Reader, scratch *[]byte) (int, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < recordFixedLen || n > maxRecordBytes {
		return 0, nil, fmt.Errorf("stream: record claims %d payload bytes", n)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, 0, int(n))
	}
	payload := (*scratch)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tail[:]) {
		return 0, nil, fmt.Errorf("stream: record checksum mismatch")
	}
	return int(n) + 8, payload, nil
}

// Append writes one event and returns the logical offset just past its
// record — the offset a Replay resumes from to see everything after it.
// Durability follows the SyncEvery batching; call Sync for a hard point.
func (j *Journal) Append(ev *Event) (uint64, error) {
	if len(ev.Words) > MaxEventWords {
		return 0, fmt.Errorf("stream: event has %d words (limit %d)", len(ev.Words), MaxEventWords)
	}
	if _, ok := eventNames[ev.Type]; !ok {
		return 0, fmt.Errorf("stream: unknown event type %d", ev.Type)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("stream: journal is closed")
	}
	payload := encodeEvent(j.scratch[:0], ev)
	j.scratch = payload[:0]
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := j.w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("stream: appending record: %w", err)
	}
	if _, err := j.w.Write(payload); err != nil {
		return 0, fmt.Errorf("stream: appending record: %w", err)
	}
	if _, err := j.w.Write(crc[:]); err != nil {
		return 0, fmt.Errorf("stream: appending record: %w", err)
	}
	j.tail += uint64(len(payload) + 8)
	j.events++
	j.unsynced++
	if j.syncEvery > 0 && j.unsynced >= j.syncEvery {
		if err := j.syncLocked(); err != nil {
			return 0, err
		}
	}
	return j.tail, nil
}

// Sync flushes buffered records and fsyncs the file: every previously
// appended event is durable when it returns.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("stream: journal is closed")
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("stream: flushing journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("stream: syncing journal: %w", err)
	}
	j.unsynced = 0
	return nil
}

// Replay streams every record at offset >= from, in order, to fn;
// fn receives the offset just past each record (pass it back as the next
// from). Replay flushes buffered appends first and reads through an
// independent handle, so it is safe concurrently with Append.
func (j *Journal) Replay(from uint64, fn func(off uint64, ev Event) error) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("stream: journal is closed")
	}
	if err := j.w.Flush(); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("stream: flushing journal: %w", err)
	}
	tail := j.tail
	j.mu.Unlock()
	if from > tail {
		return fmt.Errorf("stream: replay offset %d is past the journal tail %d", from, tail)
	}
	f, err := os.Open(j.path)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	phys := int64(journalHdrLen) + int64(from)
	br := bufio.NewReaderSize(io.NewSectionReader(f, phys, fi.Size()-phys), 1<<16)
	off := from
	scratch := make([]byte, 0, 1<<12)
	for off < tail {
		n, payload, err := readRecord(br, &scratch)
		if err != nil {
			return fmt.Errorf("stream: journal corrupt at offset %d: %w", off, err)
		}
		ev, err := decodeEvent(payload)
		if err != nil {
			return fmt.Errorf("stream: journal corrupt at offset %d: %w", off, err)
		}
		off += uint64(n)
		if err := fn(off, ev); err != nil {
			return err
		}
	}
	return nil
}

// Tail returns the offset past the last record.
func (j *Journal) Tail() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tail
}

// Events returns the number of records currently in the file.
func (j *Journal) Events() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events
}

// SizeBytes returns the journal file's current size.
func (j *Journal) SizeBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int64(journalHdrLen) + int64(j.tail)
}

// Watermark returns the published-offset watermark.
func (j *Journal) Watermark() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.mark
}

// SetWatermark records that every record below off has been applied and
// published. The mark is persisted to the sidecar file atomically (temp
// file, fsync, rename, directory fsync — the store.SaveV2 discipline).
func (j *Journal) SetWatermark(off uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if off > j.tail {
		return fmt.Errorf("stream: watermark %d is past the journal tail %d", off, j.tail)
	}
	j.mark = off
	return j.storeMarkLocked()
}

func (j *Journal) markPath() string { return j.path + ".mark" }

func (j *Journal) loadMark() uint64 {
	p, err := os.ReadFile(j.markPath())
	if err != nil || len(p) != 12 {
		return 0
	}
	if crc32.ChecksumIEEE(p[:8]) != binary.LittleEndian.Uint32(p[8:]) {
		return 0
	}
	return min(binary.LittleEndian.Uint64(p[:8]), j.tail)
}

func (j *Journal) storeMarkLocked() error {
	var p [12]byte
	binary.LittleEndian.PutUint64(p[:8], j.mark)
	binary.LittleEndian.PutUint32(p[8:], crc32.ChecksumIEEE(p[:8]))
	return store.WriteFileAtomic(j.markPath(), func(f *os.File) error {
		_, err := f.Write(p[:])
		return err
	})
}

// Close flushes, fsyncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.syncLocked()
	j.closed = true
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}
