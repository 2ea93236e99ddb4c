// Disk-store: the deployment shape of a precomputation structure.
//
// A catalogue service precomputes the skyline diagram for its product
// catalogue on a build machine, writes it to a paged binary file, and ships
// the file to query replicas. A replica memory-maps the file and answers
// skyline queries straight from its bytes — it never rebuilds the diagram,
// and the operating system pages in only the parts queries touch. The
// whole-file CRC is verified once at open, so a corrupted file fails loudly
// instead of serving wrong skylines.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/quaddiag"
	"repro/internal/store"
)

func main() {
	// --- Build machine -----------------------------------------------------
	products, err := dataset.Generate(dataset.Config{
		N: 400, Dim: 2, Dist: dataset.AntiCorrelated, Domain: 512, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	diagram, err := quaddiag.BuildScanning(products, 1)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "skystore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "catalogue.sky")
	if err := store.CreateFile(path, diagram); err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("build machine: %d products, %d cells -> %s (%d KiB)\n",
		len(products), diagram.Grid.NumCells(), filepath.Base(path), fi.Size()/1024)

	// --- Query replica -----------------------------------------------------
	replica, err := store.OpenMmap(path)
	if err != nil {
		log.Fatal(err)
	}
	defer replica.Close()

	// A single shopper.
	q := geom.Pt2(-1, 100.5, 250.5)
	ids := replica.QueryXY(q.X(), q.Y())
	fmt.Printf("replica: shopper at (%.0f, %.0f) sees %d frontier products\n",
		q.X(), q.Y(), len(ids))

	// A burst of shoppers: each answer is two rank-table loads, a label load
	// and the answer's ids decoded from the mapped file.
	queries := make([]geom.Point, 2000)
	results := make([][]int32, len(queries))
	total := 0
	for i := range queries {
		queries[i] = geom.Pt2(-1, float64((i*37)%512)+0.5, float64((i*91)%512)+0.5)
		results[i] = replica.QueryXY(queries[i].X(), queries[i].Y())
		total += len(results[i])
	}
	mode := "a memory map"
	if !replica.Mapped() {
		mode = "the file read into memory"
	}
	fmt.Printf("replica: %d queries answered (%d result rows) from %s\n",
		len(queries), total, mode)

	// Verify against the in-memory diagram.
	for i, qq := range queries[:200] {
		want := diagram.Query(qq)
		if len(results[i]) != len(want) {
			log.Fatalf("disk answer differs from in-memory diagram at %v", qq)
		}
	}
	fmt.Println("verified: disk answers identical to the in-memory diagram")
}
