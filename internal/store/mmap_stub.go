//go:build !unix

package store

import "errors"

// Platforms without the unix mmap syscalls: mmapFile always fails, so
// OpenMmap serves every file read into memory.
func mmapFile(string) ([]byte, error) { return nil, errors.ErrUnsupported }

func munmapFile([]byte) error { return nil }
