package quaddiag

import (
	"math/rand"
	"testing"
)

// TestCompactSavesMemory: the interned table, one stored result per distinct
// result plus a 4-byte label per cell, holds far less than flat per-cell
// storage, and Merge finds between one and NumCells polyominoes.
func TestCompactSavesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := genGP(rng, 150)
	d, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	interned, flat := d.MemoryFootprint()
	// With 150 points the compression should be substantial (cells greatly
	// outnumber polyominoes).
	if ratio := float64(flat) / float64(interned); ratio < 2 {
		t.Fatalf("interned %d bytes, flat %d: compression ratio %.2f, expected >= 2", interned, flat, ratio)
	}
	part, err := d.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if part.NumRegions <= 0 || part.NumRegions > d.Grid.NumCells() {
		t.Fatalf("Merge: %d regions over %d cells", part.NumRegions, d.Grid.NumCells())
	}
}
