package svgplot

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dyndiag"
	"repro/internal/quaddiag"
	"repro/internal/voronoi"
)

func TestWriteQuadrantDiagram(t *testing.T) {
	hotels := dataset.Hotels()
	d, err := quaddiag.BuildScanning(hotels, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := d.Merge()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteQuadrantDiagram(&buf, hotels, d.Grid, part, DefaultCanvas()); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	if strings.Count(svg, "<circle") != len(hotels) {
		t.Fatalf("want %d point markers, got %d", len(hotels), strings.Count(svg, "<circle"))
	}
	if strings.Count(svg, "<rect") != d.Grid.NumCells() {
		t.Fatalf("want %d cell rects, got %d", d.Grid.NumCells(), strings.Count(svg, "<rect"))
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if err := WriteQuadrantDiagram(&buf2, hotels, d.Grid, part, DefaultCanvas()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("rendering is not deterministic")
	}
}

func TestWriteSweepingDiagram(t *testing.T) {
	hotels := dataset.Hotels()
	sw, err := quaddiag.BuildSweeping(hotels)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSweepingDiagram(&buf, hotels, sw.Rings, DefaultCanvas()); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "<polygon") != len(sw.Rings) {
		t.Fatal("one polygon per ring expected")
	}
}

func TestWriteVoronoi(t *testing.T) {
	hotels := dataset.Hotels()
	r, err := voronoi.Rasterize(hotels, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVoronoi(&buf, hotels, r, DefaultCanvas()); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "<rect") != 24*24 {
		t.Fatal("one rect per raster pixel expected")
	}
}

func TestWriteDynamicDiagram(t *testing.T) {
	hotels := dataset.Hotels()
	d, err := dyndiag.BuildScanning(hotels, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := d.Merge()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDynamicDiagram(&buf, hotels, d.Sub, part, DefaultCanvas()); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "<rect") != d.Sub.NumSubcells() {
		t.Fatal("one rect per subcell expected")
	}
}
