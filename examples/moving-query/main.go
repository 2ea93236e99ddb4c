// Moving-query: continuous skyline queries for a moving user.
//
// A commuter drives across town while their phone keeps a list of
// competitive restaurants (price vs distance-to-me trade-off, both to be
// minimised — here modelled in the diagram's coordinate plane). Without a
// precomputed structure, the app would re-run a skyline query every few
// metres. With the skyline diagram, each polyomino is a *safe zone*: the
// result cannot change while the user stays inside one, so the app computes,
// once per trip leg, the exact positions where the answer will change —
// the diagram-crossing times — and does zero work in between.
//
// This is the continuous-query problem of the paper's related work (Huang
// et al., Cheema et al., §II) solved with the diagram the paper proposes.
package main

import (
	"fmt"
	"log"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/quaddiag"
	"repro/internal/safezone"
)

func main() {
	// The city's restaurants (two scored attributes).
	pts, err := dataset.Generate(dataset.Config{N: 60, Dim: 2, Dist: dataset.Clustered, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	pts = dataset.GeneralPosition(pts)

	diagram, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		log.Fatal(err)
	}

	// One trip leg: drive diagonally across the plane over one time unit.
	trip := safezone.Path{
		Start:    geom.Pt2(-1, 2, 55),
		Velocity: geom.Pt2(-1, 50, -48),
		Duration: 1,
	}
	timeline, err := safezone.ForQuadrant(diagram, trip)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trip from (%.0f, %.0f) to (%.0f, %.0f)\n",
		trip.Start.X(), trip.Start.Y(), trip.At(1).X(), trip.At(1).Y())
	fmt.Printf("the skyline result changes %d times along the way:\n\n", safezone.Changes(timeline))
	for _, iv := range timeline {
		fmt.Printf("  t ∈ [%.3f, %.3f): %2d competitive restaurants %v\n",
			iv.T0, iv.T1, len(iv.IDs), iv.IDs)
	}
	fmt.Println("\nbetween those instants the app does no skyline work at all —")
	fmt.Println("each interval is one safe zone (skyline polyomino) of the diagram.")
}
