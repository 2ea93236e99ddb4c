// Voronoi-vs-skyline: the paper's central analogy, drawn (Figures 2 and 3).
//
// For one dataset this example renders three SVGs into ./out/:
//
//	voronoi.svg    — the Voronoi partition: regions of constant nearest
//	                 neighbour (rasterised)
//	skyline.svg    — the skyline diagram: cells coloured by skyline
//	                 polyomino, i.e. regions of constant quadrant-skyline
//	                 result
//	sweeping.svg   — the same polyominoes drawn directly from the sweeping
//	                 algorithm's vertex rings (Figure 8 style)
//
// Open them side by side: the skyline diagram is to skyline queries what the
// Voronoi diagram is to kNN queries.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/quaddiag"
	"repro/internal/svgplot"
	"repro/internal/voronoi"
)

func main() {
	pts, err := dataset.Generate(dataset.Config{N: 24, Dim: 2, Dist: dataset.Independent, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	pts = dataset.GeneralPosition(pts)

	outDir := "out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	// Voronoi partition (Figure 2).
	raster, err := voronoi.Rasterize(pts, 200, 200)
	if err != nil {
		log.Fatal(err)
	}
	writeSVG(filepath.Join(outDir, "voronoi.svg"), func(f *os.File) error {
		return svgplot.WriteVoronoi(f, pts, raster, svgplot.DefaultCanvas())
	})

	// Skyline diagram via cells + merge (Figure 3/4).
	d, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		log.Fatal(err)
	}
	part, err := d.Merge()
	if err != nil {
		log.Fatal(err)
	}
	writeSVG(filepath.Join(outDir, "skyline.svg"), func(f *os.File) error {
		return svgplot.WriteQuadrantDiagram(f, pts, d.Grid, part, svgplot.DefaultCanvas())
	})

	// The same polyominoes straight from the sweeping algorithm (Figure 8).
	sw, err := quaddiag.BuildSweeping(pts)
	if err != nil {
		log.Fatal(err)
	}
	writeSVG(filepath.Join(outDir, "sweeping.svg"), func(f *os.File) error {
		return svgplot.WriteSweepingDiagram(f, pts, sw.Rings, svgplot.DefaultCanvas())
	})

	fmt.Printf("dataset: %d points\n", len(pts))
	fmt.Printf("voronoi regions (seeds): %d\n", len(pts))
	fmt.Printf("skyline polyominoes:     %d (+1 unbounded empty region)\n", len(sw.Rings))
	fmt.Println("wrote out/voronoi.svg, out/skyline.svg, out/sweeping.svg")
}

func writeSVG(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		log.Fatal(err)
	}
}
