//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps the whole file at path read-only and closes its descriptor:
// the mapping outlives it.
func mmapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 || int64(int(size)) != size {
		return nil, fmt.Errorf("store: cannot map %d bytes", size)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error { return syscall.Munmap(b) }
