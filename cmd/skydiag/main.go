// Command skydiag is the command-line interface to the skyline diagram
// library:
//
//	skydiag gen        -n 100 -dist anti [-domain 256] [-seed 7] -o points.csv
//	skydiag build      -in points.csv -kind quadrant [-alg scanning]
//	skydiag query      -in points.csv -kind dynamic -q 10,80
//	skydiag svg        -in points.csv -kind quadrant|dynamic|sweeping|voronoi -o out.svg
//	skydiag save       -in points.csv -o diagram.sky
//	skydiag serve-file -in diagram.sky -q 10,80
//	skydiag influence  -in points.csv -id 11
//	skydiag trajectory -in points.csv -waypoints "2,70;30,95"
//
// Data files are CSV lines "id,x,y". Omitting -in for the demo commands uses
// the paper's 11-hotel running example.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dyndiag"
	"repro/internal/geom"
	"repro/internal/quaddiag"
	"repro/internal/safezone"
	"repro/internal/store"
	"repro/internal/svgplot"
	"repro/internal/voronoi"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "svg":
		err = cmdSVG(os.Args[2:])
	case "save":
		err = cmdSave(os.Args[2:])
	case "serve-file":
		err = cmdServeFile(os.Args[2:])
	case "influence":
		err = cmdInfluence(os.Args[2:])
	case "trajectory":
		err = cmdTrajectory(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "skydiag: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "skydiag:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: skydiag <command> [flags]

commands:
  gen         generate a synthetic dataset as CSV
  build       build a skyline diagram and report its statistics
  query       answer a skyline query for a point
  svg         render a diagram as SVG
  save        build a quadrant diagram and persist it as a paged file
  serve-file  answer a query from a persisted diagram file (no rebuild)
  influence   report where in query space a point is competitive
  trajectory  continuous skyline timeline of a moving query

run "skydiag <command> -h" for per-command flags`)
}

func loadPoints(path string) ([]geom.Point, error) {
	if path == "" {
		return dataset.Hotels(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	n := fs.Int("n", 100, "number of points")
	dim := fs.Int("dim", 2, "dimensions")
	distName := fs.String("dist", "inde", "distribution: inde|corr|anti|clus")
	domain := fs.Int("domain", 0, "integer domain size (0 = continuous)")
	seed := fs.Int64("seed", 42, "seed")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	dist, err := dataset.ParseDistribution(*distName)
	if err != nil {
		return err
	}
	pts, err := dataset.Generate(dataset.Config{N: *n, Dim: *dim, Dist: dist, Domain: *domain, Seed: *seed})
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return dataset.WriteCSV(w, pts)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (default: the paper's hotel example)")
	kind := fs.String("kind", "quadrant", "diagram kind: quadrant|global|dynamic")
	alg := fs.String("alg", "", "construction algorithm (default: scanning)")
	fs.Parse(args)

	pts, err := loadPoints(*in)
	if err != nil {
		return err
	}
	opts := core.Options{Algorithm: *alg}
	switch *kind {
	case "quadrant":
		d, err := core.BuildQuadrant(pts, opts)
		if err != nil {
			return err
		}
		st, err := d.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("points=%d cells=%d polyominoes=%d avg_sky=%.2f max_sky=%d\n",
			st.N, st.Cells, st.Polyominoes, st.AvgSkySize, st.MaxSkySize)
	case "global":
		d, err := core.BuildGlobal(pts, opts)
		if err != nil {
			return err
		}
		part, err := d.Polyominoes()
		if err != nil {
			return err
		}
		fmt.Printf("points=%d cells=%d polyominoes=%d\n",
			len(pts), d.Grid().NumCells(), part.NumRegions)
	case "dynamic":
		d, err := core.BuildDynamic(pts, opts)
		if err != nil {
			return err
		}
		part, err := d.Polyominoes()
		if err != nil {
			return err
		}
		fmt.Printf("points=%d subcells=%d polyominoes=%d\n",
			len(pts), d.SubGrid().NumSubcells(), part.NumRegions)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	return nil
}

func parseQuery(s string) (geom.Point, error) {
	parts := strings.Split(s, ",")
	coords := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.Point{}, fmt.Errorf("bad query coordinate %q: %v", p, err)
		}
		coords[i] = v
	}
	return geom.Point{ID: -1, Coords: coords}, nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (default: the paper's hotel example)")
	kind := fs.String("kind", "quadrant", "query kind: quadrant|global|dynamic")
	qstr := fs.String("q", "10,80", "query point, comma-separated coordinates")
	precompute := fs.Bool("diagram", true, "answer via precomputed diagram (false = from scratch)")
	fs.Parse(args)

	pts, err := loadPoints(*in)
	if err != nil {
		return err
	}
	q, err := parseQuery(*qstr)
	if err != nil {
		return err
	}
	var result []geom.Point
	switch *kind {
	case "quadrant":
		if *precompute {
			d, err := core.BuildQuadrant(pts, core.Options{})
			if err != nil {
				return err
			}
			result = d.QueryPoints(q)
		} else {
			result = core.QuadrantSkyline(pts, q)
		}
	case "global":
		if *precompute {
			d, err := core.BuildGlobal(pts, core.Options{})
			if err != nil {
				return err
			}
			result = d.QueryPoints(q)
		} else {
			result = core.GlobalSkyline(pts, q)
		}
	case "dynamic":
		if *precompute {
			d, err := core.BuildDynamic(pts, core.Options{})
			if err != nil {
				return err
			}
			result = d.QueryPoints(q)
		} else {
			result = core.DynamicSkyline(pts, q)
		}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	for _, p := range result {
		fmt.Println(p)
	}
	return nil
}

func cmdSVG(args []string) error {
	fs := flag.NewFlagSet("svg", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (default: the paper's hotel example)")
	kind := fs.String("kind", "quadrant", "rendering: quadrant|dynamic|sweeping|voronoi")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	pts, err := loadPoints(*in)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *kind {
	case "quadrant":
		d, err := quaddiag.BuildScanning(pts, 1)
		if err != nil {
			return err
		}
		part, err := d.Merge()
		if err != nil {
			return err
		}
		return svgplot.WriteQuadrantDiagram(w, pts, d.Grid, part, svgplot.DefaultCanvas())
	case "dynamic":
		d, err := dyndiag.BuildScanning(pts, 1)
		if err != nil {
			return err
		}
		part, err := d.Merge()
		if err != nil {
			return err
		}
		return svgplot.WriteDynamicDiagram(w, pts, d.Sub, part, svgplot.DefaultCanvas())
	case "sweeping":
		sw, err := quaddiag.BuildSweeping(pts)
		if err != nil {
			return err
		}
		return svgplot.WriteSweepingDiagram(w, pts, sw.Rings, svgplot.DefaultCanvas())
	case "voronoi":
		r, err := voronoi.Rasterize(pts, 160, 160)
		if err != nil {
			return err
		}
		return svgplot.WriteVoronoi(w, pts, r, svgplot.DefaultCanvas())
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
}

func cmdSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (default: the paper's hotel example)")
	out := fs.String("o", "diagram.sky", "output diagram file")
	fs.Parse(args)

	pts, err := loadPoints(*in)
	if err != nil {
		return err
	}
	d, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		return err
	}
	if err := store.CreateFile(*out, d); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d points, %d cells, %d bytes\n",
		*out, len(pts), d.Grid.NumCells(), fi.Size())
	return nil
}

func cmdServeFile(args []string) error {
	fs := flag.NewFlagSet("serve-file", flag.ExitOnError)
	in := fs.String("in", "diagram.sky", "diagram file written by 'skydiag save'")
	qstr := fs.String("q", "10,80", "query point")
	fs.Parse(args)

	s, err := store.OpenMmap(*in)
	if err != nil {
		return err
	}
	defer s.Close()
	q, err := parseQuery(*qstr)
	if err != nil {
		return err
	}
	ids := s.QueryXY(q.X(), q.Y())
	byID := make(map[int32]geom.Point)
	for _, p := range s.Points() {
		byID[int32(p.ID)] = p
	}
	for _, id := range ids {
		fmt.Println(byID[id])
	}
	return nil
}

func cmdInfluence(args []string) error {
	fs := flag.NewFlagSet("influence", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (default: the paper's hotel example)")
	id := fs.Int("id", -1, "point id; -1 prints the full influence ranking")
	fs.Parse(args)

	pts, err := loadPoints(*in)
	if err != nil {
		return err
	}
	d, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		return err
	}
	if *id >= 0 {
		reg, err := d.Influence(*id)
		if err != nil {
			return err
		}
		fmt.Printf("p%d appears in the skyline result of %d of %d cells (clipped area %.2f)\n",
			*id, reg.Cells, d.Grid.NumCells(), reg.Area)
		return nil
	}
	rank, err := d.InfluenceRanking()
	if err != nil {
		return err
	}
	for _, rc := range rank {
		fmt.Printf("p%-6d %6d cells\n", rc.ID, rc.Cells)
	}
	return nil
}

func cmdTrajectory(args []string) error {
	fs := flag.NewFlagSet("trajectory", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (default: the paper's hotel example)")
	way := fs.String("waypoints", "2,70;30,95", "semicolon-separated x,y waypoints")
	fs.Parse(args)

	pts, err := loadPoints(*in)
	if err != nil {
		return err
	}
	d, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		return err
	}
	var waypoints []geom.Point
	for _, part := range strings.Split(*way, ";") {
		q, err := parseQuery(part)
		if err != nil {
			return err
		}
		if q.Dim() != 2 {
			return fmt.Errorf("waypoints are 2-D, got %q", part)
		}
		waypoints = append(waypoints, q)
	}
	tl, err := safezone.PolylineForQuadrant(d, waypoints)
	if err != nil {
		return err
	}
	fmt.Printf("%d safe zones crossed, %d result changes:\n", len(tl), safezone.Changes(tl))
	for _, iv := range tl {
		fmt.Printf("  t ∈ [%.3f, %.3f): %v\n", iv.T0, iv.T1, iv.IDs)
	}
	return nil
}
