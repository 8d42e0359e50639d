package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// encodeV2PlanTwoPass is the v2 encoder as it stood before the single-pass
// one, kept as its oracle: every emitted section runs twice — once into a
// discarding sink to learn the CRC the table needs, once into the writer —
// so header and table can be written first, to a plain io.Writer.
func encodeV2PlanTwoPass(w io.Writer, plan []*v2section) error {
	off := alignUp(uint64(v2HeaderLen + v2EntryLen*len(plan)))
	for _, sec := range plan {
		sec.off = off
		off = alignUp(off + sec.size)
	}
	scratch := make([]byte, 1<<18)
	for _, sec := range plan {
		sink := &v2sink{w: io.Discard, crc: crc32.NewIEEE(), scratch: scratch}
		sec.emit(sink)
		if sink.err != nil {
			return fmt.Errorf("store: encoding section %q: %w", sec.tag, sink.err)
		}
		sec.crc = sink.crc.Sum32()
	}
	table := v2Table(plan)

	bw := bufio.NewWriterSize(w, 1<<16)
	hdr := make([]byte, v2HeaderLen)
	copy(hdr, magicV2)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(plan)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(crc32.ChecksumIEEE(table)))
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("store: writing v2 header: %w", err)
	}
	if _, err := bw.Write(table); err != nil {
		return fmt.Errorf("store: writing v2 section table: %w", err)
	}
	var pad [v2Align]byte
	pos := uint64(v2HeaderLen + len(table))
	for _, sec := range plan {
		if sec.off < pos {
			return fmt.Errorf("store: internal error: v2 layout overlaps at %q", sec.tag)
		}
		if _, err := bw.Write(pad[:sec.off-pos]); err != nil {
			return fmt.Errorf("store: padding before %q: %w", sec.tag, err)
		}
		sink := &v2sink{w: bw, crc: crc32.NewIEEE(), scratch: scratch}
		sec.emit(sink)
		if sink.err != nil {
			return fmt.Errorf("store: writing section %q: %w", sec.tag, sink.err)
		}
		if sink.crc.Sum32() != sec.crc {
			return fmt.Errorf("store: internal error: section %q bytes changed between passes", sec.tag)
		}
		pos = sec.off + sec.size
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing snapshot: %w", err)
	}
	return nil
}
