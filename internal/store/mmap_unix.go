//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps path read-only and reports mapped=true. Empty files cannot
// be mapped (and could not hold a v2 header anyway), and some file systems
// refuse to map; both fall back to the aligned read, so the caller
// produces a proper format error or serves the copy.
func mapFile(path string) ([]byte, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	size := fi.Size()
	if size <= 0 {
		data, err := readAligned(path)
		return data, false, err
	}
	if size > int64(maxSectionBytes)*2 {
		return nil, false, fmt.Errorf("snapshot size %d out of range", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		data, err := readAligned(path)
		return data, false, err
	}
	return data, true, nil
}

func unmapFile(data []byte) error { return syscall.Munmap(data) }
