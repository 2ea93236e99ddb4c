package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// openFDs counts this process's open file descriptors via /proc. Skips the
// calling test on platforms without procfs.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestOpenErrorPathsDoNotLeakFDs audits every OpenMmap failure mode for
// file descriptor leaks: header validation, trailer verification, and grid
// reconstruction all fail after the file is opened and mapped, so each must
// release it on the way out. A few hundred failed opens with a leak would
// show directly in the fd count.
func TestOpenErrorPathsDoNotLeakFDs(t *testing.T) {
	d := buildDiagram(t, 20, 31)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.sky")
	if err := CreateFile(good, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func(b []byte){
		"magic":   func(b []byte) { b[0] ^= 0xFF },
		"version": func(b []byte) { binary.BigEndian.PutUint32(b[8:], 99) },
		"dim":     func(b []byte) { binary.BigEndian.PutUint32(b[12:], 7) },
		"points":  func(b []byte) { binary.BigEndian.PutUint64(b[16:], 1<<40) },
		"payload": func(b []byte) { b[len(b)/2] ^= 0x01 },
		"trailer": func(b []byte) { b[len(b)-1] ^= 0x01 },
	}
	paths := make([]string, 0, len(corruptions)+1)
	for name, mutate := range corruptions {
		b := append([]byte(nil), raw...)
		mutate(b)
		p := filepath.Join(dir, name+".sky")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMmap(p); err == nil {
			t.Fatalf("corruption %q opened cleanly", name)
		}
		paths = append(paths, p)
	}
	// Truncated-to-header file exercises the short-read path too.
	short := filepath.Join(dir, "short.sky")
	if err := os.WriteFile(short, raw[:headerSize-4], 0o644); err != nil {
		t.Fatal(err)
	}
	paths = append(paths, short)

	before := openFDs(t)
	for round := 0; round < 50; round++ {
		for _, p := range paths {
			if _, err := OpenMmap(p); err == nil {
				t.Fatalf("corrupt file %s opened", p)
			}
		}
		if _, err := OpenMmap(filepath.Join(dir, "missing.sky")); err == nil {
			t.Fatal("missing file opened")
		}
		if _, err := Recover(filepath.Join(dir, "payload.sky")); err == nil {
			t.Fatal("Recover of corrupt file with no temp succeeded")
		}
	}
	after := openFDs(t)
	// Allow a little slack for runtime-internal fds (netpoll etc.), but a
	// real leak here would be hundreds of descriptors.
	if after > before+5 {
		t.Fatalf("fd leak: %d open before, %d after %d failed opens",
			before, after, 50*(len(paths)+2))
	}

	// The success path balances too: open and close in a loop.
	before = openFDs(t)
	for round := 0; round < 50; round++ {
		s, err := OpenMmap(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFDs(t); after > before+5 {
		t.Fatalf("fd leak on success path: %d before, %d after", before, after)
	}
}
